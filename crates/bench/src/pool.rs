//! A small ordered fan-out pool for embarrassingly parallel sweeps.
//!
//! Sweep points in this harness are independent by construction: each one
//! builds its own platform, seeds its own RNG, and runs on its own virtual
//! clock. [`run_ordered`] exploits that by fanning points across OS threads
//! while returning results **in input order** and absorbing each point's
//! telemetry in that same order, so report rows and telemetry exports are
//! exactly what a serial run would have produced. Parallelism changes
//! wall-clock time and nothing else.

use crossbeam::channel;
use securecloud_telemetry::Telemetry;

/// The default worker count: the machine's available parallelism, falling
/// back to 1 when it cannot be queried.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The cells of a two-axis sweep grid, `outer`-major — the order every
/// sweep's rows are reported in.
#[must_use]
pub fn grid<A: Copy, B: Copy>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    let cells = outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)));
    cells.collect()
}

/// Runs `f` over every item, using up to `jobs` worker threads, and returns
/// the results in input order.
///
/// When `telemetry` is given, `f` records each item into a private bundle
/// that is absorbed into the shared one in input order — the serial path
/// goes through the identical record-then-absorb sequence, so results *and*
/// telemetry exports are byte-identical for any job count. Sweeps that
/// record nothing pass `None` and ignore `f`'s second argument.
///
/// With `jobs <= 1` the items run serially on the calling thread — no
/// threads, no channels — so a single code path serves both the reference
/// serial mode and the parallel mode. Worker threads are scoped: the call
/// returns only after every worker has finished.
///
/// # Panics
/// Propagates a panic from `f` after the scope unwinds, like the serial
/// loop would.
pub fn run_ordered<T, R, F>(
    items: Vec<T>,
    jobs: usize,
    telemetry: Option<&Telemetry>,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T, Option<&Telemetry>) -> R + Sync,
{
    let instrument = telemetry.is_some();
    let record = |item| {
        let local = instrument.then(Telemetry::new);
        (f(item, local.as_ref()), local)
    };
    let results = if jobs <= 1 || items.len() <= 1 {
        items.into_iter().map(record).collect()
    } else {
        fan_out(items, jobs, record)
    };
    let absorbed = results.into_iter().map(|(result, local)| {
        if let (Some(shared), Some(local)) = (telemetry, local) {
            shared.absorb(&local);
        }
        result
    });
    absorbed.collect()
}

/// The parallel path of [`run_ordered`]: `f` over every item on
/// `min(jobs, items)` scoped threads, results slotted back in input order.
fn fan_out<T: Send, R: Send>(items: Vec<T>, jobs: usize, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let total = items.len();
    let (task_tx, task_rx) = channel::unbounded::<(usize, T)>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, R)>();
    for task in items.into_iter().enumerate() {
        assert!(
            task_tx.send(task).is_ok(),
            "task channel open while enqueuing"
        );
    }
    drop(task_tx);

    let workers = jobs.min(total);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok((index, item)) = task_rx.recv() {
                    let result = f(item);
                    if result_tx.send((index, result)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(result_tx);

        let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
        while let Ok((index, result)) = result_rx.recv() {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task produced a result"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_results_match_in_order() {
        let items: Vec<u64> = (0..64).collect();
        let serial = run_ordered(items.clone(), 1, None, |x, _| x * x);
        let parallel = run_ordered(items, 4, None, |x, _| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 100);
    }

    #[test]
    fn handles_more_jobs_than_items() {
        let out = run_ordered(vec![1u32, 2], 16, None, |x, _| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_input_returns_empty() {
        let out = run_ordered(Vec::<u8>::new(), 4, None, |x, _| x);
        assert!(out.is_empty());
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }
}
