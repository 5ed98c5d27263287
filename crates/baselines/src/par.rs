//! Deterministic data-parallel helper.
//!
//! Baselines parallelize only *independent per-index* computations, then
//! reduce serially in index order — the same strategy FLOC's gain
//! evaluation uses — so any thread count yields bit-identical results.

/// Computes `f(i)` for `i in 0..n`, fanning out over at most `threads`
/// contiguous chunks. The output is always in index order; with
/// `threads <= 1` this is a plain serial map.
pub(crate) fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut slots: Vec<Option<Vec<T>>> = (0..workers).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, slot) in slots.iter_mut().enumerate() {
            let f = &f;
            scope.spawn(move || {
                let lo = i * chunk;
                let hi = ((i + 1) * chunk).min(n);
                *slot = Some((lo..hi).map(f).collect());
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.expect("every chunk is filled before the scope ends"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_in_index_order_for_any_thread_count() {
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 4, 16, 200] {
            assert_eq!(map_indexed(97, threads, |i| i * i), expect, "{threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
    }
}
