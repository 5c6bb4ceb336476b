//! Model-based property tests for the file-system shield: an arbitrary
//! sequence of create/write/read/remove operations behaves exactly like a
//! plain in-memory file map — while the host only ever sees ciphertext.

use proptest::prelude::*;
use securecloud_scone::fshield::{FsProtection, ShieldedFs};
use securecloud_scone::hostos::MemHost;
use securecloud_scone::syscall::Shield;
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::MemorySim;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum FsOp {
    Create(u8),
    Write(u8, u16, Vec<u8>),
    Read(u8, u16, u16),
    Remove(u8),
}

fn arb_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (0u8..4).prop_map(FsOp::Create),
        (
            0u8..4,
            0u16..9000,
            prop::collection::vec(any::<u8>(), 1..600)
        )
            .prop_map(|(f, off, data)| FsOp::Write(f, off, data)),
        (0u8..4, 0u16..10_000, 0u16..2_000).prop_map(|(f, off, len)| FsOp::Read(f, off, len)),
        (0u8..4).prop_map(FsOp::Remove),
    ]
}

fn path(f: u8) -> String {
    format!("/f{f}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shielded_fs_matches_plain_model(ops in prop::collection::vec(arb_op(), 0..40)) {
        let host = Arc::new(MemHost::new());
        let mut fs = ShieldedFs::mount(Shield::sync(host.clone()), FsProtection::new());
        let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::zero());
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();

        for op in &ops {
            match op {
                FsOp::Create(f) => {
                    let p = path(*f);
                    let expect_err = model.contains_key(&p);
                    let result = fs.create(&p);
                    prop_assert_eq!(result.is_err(), expect_err);
                    if !expect_err {
                        model.insert(p, Vec::new());
                    }
                }
                FsOp::Write(f, off, data) => {
                    let p = path(*f);
                    let result = fs.write(&mut mem, &p, u64::from(*off), data);
                    match model.get_mut(&p) {
                        None => prop_assert!(result.is_err()),
                        Some(content) => {
                            prop_assert!(result.is_ok());
                            let end = *off as usize + data.len();
                            if content.len() < end {
                                content.resize(end, 0);
                            }
                            content[*off as usize..end].copy_from_slice(data);
                        }
                    }
                }
                FsOp::Read(f, off, len) => {
                    let p = path(*f);
                    let result = fs.read(&mut mem, &p, u64::from(*off), *len as usize);
                    match model.get(&p) {
                        None => prop_assert!(result.is_err()),
                        Some(content) => {
                            let start = (*off as usize).min(content.len());
                            let end = (start + *len as usize).min(content.len());
                            prop_assert_eq!(result.unwrap(), &content[start..end]);
                        }
                    }
                }
                FsOp::Remove(f) => {
                    let p = path(*f);
                    let expect_err = !model.contains_key(&p);
                    let result = fs.remove(&mut mem, &p);
                    prop_assert_eq!(result.is_err(), expect_err);
                    model.remove(&p);
                }
            }
        }

        // Host-side ciphertext never contains a 16-byte plaintext window
        // of any live file (spot-check the longest file).
        if let Some((_, content)) = model.iter().max_by_key(|(_, c)| c.len()) {
            if content.len() >= 16 {
                let window = &content[..16];
                // Skip degenerate all-equal windows (e.g. zero padding),
                // which can legitimately collide with ciphertext bytes.
                if window.iter().any(|&b| b != window[0]) {
                    for p in host.paths() {
                        let raw = host.raw_file(&p).unwrap();
                        prop_assert!(
                            !raw.windows(16).any(|w| w == window),
                            "plaintext window leaked into {p}"
                        );
                    }
                }
            }
        }
    }

    /// Remount with the protection metadata preserves every file.
    #[test]
    fn remount_preserves_state(
        files in prop::collection::btree_map("f[0-9]", prop::collection::vec(any::<u8>(), 0..5000), 0..4),
    ) {
        let host = Arc::new(MemHost::new());
        let mut fs = ShieldedFs::mount(Shield::sync(host.clone()), FsProtection::new());
        let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::zero());
        for (name, content) in &files {
            let p = format!("/{name}");
            fs.create(&p).unwrap();
            fs.write(&mut mem, &p, 0, content).unwrap();
        }
        let protection = fs.into_protection();
        let mut fs2 = ShieldedFs::mount(Shield::sync(host), protection);
        for (name, content) in &files {
            let p = format!("/{name}");
            prop_assert_eq!(&fs2.read(&mut mem, &p, 0, content.len() + 10).unwrap(), content);
        }
    }
}
