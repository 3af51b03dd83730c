//! The reference kernel: a fixed, std-only piece of work timed next to
//! every simulator run, so run times can be read at a fixed host speed.
//!
//! The host is a shared VM whose speed on memory- and allocator-heavy code
//! drifts by up to 1.7x over minutes while a pure arithmetic loop stays
//! flat. The kernel is built to feel that drift the way the simulator does:
//! a priority queue and a hash map with a boxed payload per entry, tens of
//! MB of working set, touched in random order. It shares no code with the
//! program, so a change to the program never moves it.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the development box (NOTES.md, "Steadiness");
/// a time `t` measured next to a kernel run of `k` seconds reads as
/// `t * NOMINAL_S / k`.
pub const NOMINAL_S: f64 = 0.25;

const STEPS: u64 = 400_000;
const QUEUE_CAP: usize = 200_000;
const KEYS: u64 = 1 << 20;

/// The kernel's checksum, the same on every run.
const CHECKSUM: u64 = 0x0016_d4fa_db30;

/// One kernel run: returns its checksum.
fn kernel() -> u64 {
    let mut queue = BinaryHeap::new();
    // Fixed hash keys, so every run makes the same probes.
    let mut table: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 12_345u64;
    let mut sum = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push(Reverse((x % 1_000_000, i)));
        table.insert(x % KEYS, vec![i; 8]);
        if queue.len() > QUEUE_CAP {
            let Reverse((t, j)) = queue.pop().expect("the queue is full");
            sum = sum.wrapping_add(t + j);
            if let Some(v) = table.remove(&(j * 7 % KEYS)) {
                sum = sum.wrapping_add(v[0]);
            }
        }
    }
    sum.wrapping_add(table.len() as u64)
}

/// Time one kernel run, in seconds; an error if its checksum is off.
pub fn time() -> Result<f64, String> {
    let t = Instant::now();
    let sum = black_box(kernel());
    let s = t.elapsed().as_secs_f64();
    if sum == CHECKSUM {
        Ok(s)
    } else {
        Err(format!(
            "reference kernel checksum {sum:016x}, expected {CHECKSUM:016x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn checksum_is_stable() {
        assert_eq!(super::kernel(), super::CHECKSUM);
    }
}
