//! One module per reproduced table/figure. Each exposes
//! `run(&Opts) -> String` returning the rendered result table (also printed
//! and persisted as JSON by the module itself).

pub mod ablations;
pub mod baselines;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod floc_perf;
pub mod http_bench;
pub mod table1;
pub mod table2_3;
pub mod table4;
pub mod table5;
pub mod yeast;
