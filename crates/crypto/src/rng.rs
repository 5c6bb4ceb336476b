//! The process-wide generator behind [`crate::random_array`].

use crate::aes;
use std::fs::File;
use std::io::Read;

/// An AES-128 key, then the next counter block (big-endian).
pub(crate) struct Generator([u8; 32]);

impl Generator {
    pub(crate) fn from_os() -> Self {
        let mut seed = [0u8; 32];
        let read = File::open("/dev/urandom").and_then(|mut os| os.read_exact(&mut seed));
        read.expect("the OS entropy source /dev/urandom is readable");
        Generator(seed)
    }

    #[cfg(test)]
    fn from_seed(seed: [u8; 32]) -> Self {
        Generator(seed)
    }

    /// Fills `out` with keystream, then takes the next 32 bytes of it as the
    /// new key and counter.
    pub(crate) fn fill(&mut self, out: &mut [u8]) {
        let (key, counter) = self.0.split_at(16);
        let cipher = aes::Aes128::new(key.try_into().expect("16-byte key"));
        let mut counter = u128::from_be_bytes(counter.try_into().expect("16-byte counter"));
        let mut next = [0u8; 32];
        for chunk in out.chunks_mut(16).chain(next.chunks_mut(16)) {
            let mut block = counter.to_be_bytes();
            cipher.encrypt_block(&mut block);
            chunk.copy_from_slice(&block[..chunk.len()]);
            counter = counter.wrapping_add(1);
        }
        self.0 = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_output_is_aes_ctr_and_rekeys_after_every_draw() {
        let key: [u8; 16] = crate::unhex("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let counter = crate::unhex("00112233445566778899aabbccddeeff").unwrap();
        let mut seed = [0u8; 32];
        seed[..16].copy_from_slice(&key);
        seed[16..].copy_from_slice(&counter);
        let mut generator = Generator::from_seed(seed);
        let mut first = [0u8; 16];
        generator.fill(&mut first);
        // FIPS-197 appendix C.1.
        assert_eq!(crate::hex(&first), "69c4e0d86a7b0430d8cdb78070b4c55a");

        // The draw spent counters ..ff, ..00 and ..01 (the last two became
        // the new key and counter); the next draw is keyed by them.
        let block = |key: &[u8; 16], counter: u128| {
            let mut block = counter.to_be_bytes();
            aes::Aes128::new(key).encrypt_block(&mut block);
            block
        };
        let base = u128::from_be_bytes(counter.try_into().unwrap());
        let next_key = block(&key, base + 1);
        let next_counter = u128::from_be_bytes(block(&key, base + 2));
        let mut second = [0u8; 16];
        generator.fill(&mut second);
        assert_eq!(second, block(&next_key, next_counter));
        assert_ne!(
            second, next_key,
            "not the next counter block under the old key"
        );
    }
}
