//! Property tests: map/reduce results are independent of partitioning and
//! failure injection, and equal a sequential reference computation.

use proptest::prelude::*;
use securecloud_faults::{FaultInjector, FaultKind, FaultPlan};
use securecloud_mapreduce::{partition_for, JobConfig, MapReduceRunner, Record};
use securecloud_sgx::enclave::Platform;
use std::collections::BTreeMap;
use std::sync::Arc;

fn word_count_reference(input: &[Record]) -> BTreeMap<Vec<u8>, u64> {
    let mut counts = BTreeMap::new();
    for (_, value) in input {
        for word in value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            *counts.entry(word.to_vec()).or_insert(0u64) += 1;
        }
    }
    counts
}

fn run_word_count(
    input: &[Record],
    mappers: usize,
    reducers: usize,
    fail_task: Option<usize>,
) -> (BTreeMap<Vec<u8>, u64>, u64) {
    let mut runner = MapReduceRunner::new(Platform::new());
    if let Some(task) = fail_task {
        let plan = FaultPlan::new().at(0, FaultKind::MapTaskFail { task, times: 1 });
        let injector = Arc::new(FaultInjector::with_plan(0, plan));
        injector.advance_to(0);
        runner.set_fault_injector(injector);
    }
    let result = runner
        .run(
            &JobConfig {
                mappers,
                reducers,
                max_retries: 2,
            },
            input,
            &|_k, v, emit| {
                for word in v.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                    emit(word.to_vec(), 1u64.to_le_bytes().to_vec());
                }
            },
            &|_k, values| {
                values
                    .iter()
                    .map(|v| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
                    .sum::<u64>()
                    .to_le_bytes()
                    .to_vec()
            },
        )
        .expect("job completes");
    let counts = result
        .output
        .into_iter()
        .map(|(k, v)| (k, u64::from_le_bytes(v.as_slice().try_into().unwrap())))
        .collect();
    (counts, result.stats.retries)
}

fn arb_input() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        prop::collection::vec(prop_oneof!["[a-e]{1,3}".prop_map(String::into_bytes)], 0..6)
            .prop_map(|words| words.join(&b' ')),
        0..12,
    )
    .prop_map(|lines| {
        lines
            .into_iter()
            .enumerate()
            .map(|(i, line)| ((i as u64).to_le_bytes().to_vec(), line))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The distributed result equals the sequential reference for any
    /// input and any (mappers, reducers) shape.
    #[test]
    fn equals_reference(
        input in arb_input(),
        mappers in 1usize..6,
        reducers in 1usize..5,
    ) {
        let (got, retries) = run_word_count(&input, mappers, reducers, None);
        prop_assert_eq!(got, word_count_reference(&input));
        prop_assert_eq!(retries, 0);
    }

    /// A planned worker failure (with retries available) fires once and
    /// never changes the result.
    #[test]
    fn failure_transparent(
        input in arb_input(),
        fail_pick in 0usize..4,
    ) {
        // The runner runs one map task per mapper, but never more tasks
        // than records; the planned failure hits one of the tasks that exist.
        let tasks = input.len().min(4);
        prop_assume!(tasks > 0);
        let (clean, _) = run_word_count(&input, 4, 2, None);
        let (faulty, retries) = run_word_count(&input, 4, 2, Some(fail_pick % tasks));
        prop_assert_eq!(retries, 1);
        prop_assert_eq!(clean, faulty);
    }

    /// The partitioner is deterministic, bounded, and spreads keys.
    #[test]
    fn partitioner_properties(
        keys in prop::collection::hash_set(prop::collection::vec(any::<u8>(), 1..8), 1..100),
        reducers in 1usize..9,
    ) {
        let mut used = vec![false; reducers];
        for key in &keys {
            let p = partition_for(key, reducers);
            prop_assert!(p < reducers);
            prop_assert_eq!(p, partition_for(key, reducers));
            used[p] = true;
        }
        // With many distinct keys, at least half the partitions are hit.
        if keys.len() >= reducers * 8 {
            let hit = used.iter().filter(|&&u| u).count();
            prop_assert!(hit * 2 >= reducers, "{hit}/{reducers} partitions used");
        }
    }
}
