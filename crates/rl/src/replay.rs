//! Experience replay with uniform and diversity (median-split) sampling.

use eadrl_rng::DetRng;

/// One stored transition `(s, a, r, s', done)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State the action was taken in.
    pub state: Vec<f64>,
    /// The executed action.
    pub action: Vec<f64>,
    /// Immediate reward.
    pub reward: f64,
    /// Resulting state.
    pub next_state: Vec<f64>,
    /// Whether the episode terminated at `next_state`.
    pub done: bool,
}

/// How mini-batches are drawn from the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniform random sampling — the original DDPG of Lillicrap et al.
    Uniform,
    /// The paper's diversity sampling (Eq. 4): half of the batch from
    /// transitions with reward ≥ median, half from below-median ones, so
    /// the critic and actor always see both good and bad actions.
    Diversity,
}

/// Fixed-capacity ring-buffer of transitions.
///
/// ```
/// use eadrl_rl::{ReplayBuffer, SamplingStrategy, Transition};
/// use eadrl_rng::DetRng;
///
/// let mut buffer = ReplayBuffer::new(100);
/// for reward in [0.1, 0.9, 0.5] {
///     buffer.push(Transition {
///         state: vec![0.0], action: vec![1.0],
///         reward, next_state: vec![0.0], done: false,
///     });
/// }
/// let mut rng = DetRng::seed_from_u64(0);
/// let batch = buffer.sample(2, SamplingStrategy::Diversity, &mut rng);
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    storage: Vec<Transition>,
    next_slot: usize,
    /// Rewards in storage order: `rewards[i] == storage[i].reward`, so
    /// the median split scans a dense column, not the transitions.
    rewards: Vec<f64>,
    /// The stored rewards in ascending [`f64::total_cmp`] order, kept up
    /// to date by `push` (binary-search insert, exact removal of the
    /// evicted reward), so the median is an O(1) read. `None` once a NaN
    /// reward arrives: the buffer then sorts a copy for every median.
    sorted: Option<Vec<f64>>,
    /// Reusable index pools for the median split, sized to the buffer;
    /// a split uses the prefix of each that it filled.
    high: Vec<usize>,
    low: Vec<usize>,
}

impl ReplayBuffer {
    /// Creates an empty buffer holding at most `capacity` transitions
    /// (`N_max` in the paper).
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            capacity,
            storage: Vec::with_capacity(capacity.min(4096)),
            next_slot: 0,
            rewards: Vec::with_capacity(capacity.min(4096)),
            sorted: Some(Vec::with_capacity(capacity.min(4096))),
            high: Vec::new(),
            low: Vec::new(),
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stores a transition, overwriting the oldest once at capacity.
    pub fn push(&mut self, t: Transition) {
        let reward = t.reward;
        let evicted = if self.storage.len() < self.capacity {
            self.storage.push(t);
            self.rewards.push(reward);
            None
        } else {
            let slot = self.next_slot;
            self.storage[slot] = t;
            self.next_slot = (slot + 1) % self.capacity;
            Some(std::mem::replace(&mut self.rewards[slot], reward))
        };
        if reward.is_nan() {
            self.sorted = None;
        }
        if let Some(sorted) = self.sorted.as_mut() {
            // No NaN has ever been stored, so `total_cmp` finds the
            // evicted reward's exact bit pattern.
            if let Some(old) = evicted {
                if let Ok(at) = sorted.binary_search_by(|x| x.total_cmp(&old)) {
                    sorted.remove(at);
                }
            }
            let at = sorted.partition_point(|x| x.total_cmp(&reward).is_lt());
            sorted.insert(at, reward);
        }
    }

    /// Draws `n` transitions (with replacement) using `strategy`.
    ///
    /// Takes `&mut self` so diversity sampling can reuse its index
    /// pools. The median comes from the sorted reward copy that `push`
    /// maintains; it can differ from a fresh stable sort only in the
    /// sign of a zero median, which no `>=` comparison sees, so the
    /// split and the RNG draw sequence are those of sorting on every
    /// call.
    ///
    /// Diversity sampling degrades gracefully: when every reward equals the
    /// median (e.g. constant rewards) one of the halves would be empty, and
    /// the call falls back to uniform sampling for the missing half.
    pub fn sample(
        &mut self,
        n: usize,
        strategy: SamplingStrategy,
        rng: &mut DetRng,
    ) -> Vec<&Transition> {
        if self.storage.is_empty() || n == 0 {
            return Vec::new();
        }
        match strategy {
            SamplingStrategy::Uniform => (0..n)
                .map(|_| &self.storage[rng.random_range(0..self.storage.len())])
                .collect(),
            SamplingStrategy::Diversity => {
                let median = self.median();
                let len = self.rewards.len();
                self.high.resize(len, 0);
                self.low.resize(len, 0);
                // Branch-free split: write the index to both pools and
                // advance only the one the comparison selects.
                let (mut n_high, mut n_low) = (0, 0);
                for (i, &reward) in self.rewards.iter().enumerate() {
                    let up = reward >= median;
                    self.high[n_high] = i;
                    self.low[n_low] = i;
                    n_high += usize::from(up);
                    n_low += usize::from(!up);
                }
                let mut out = Vec::with_capacity(n);
                let half = n / 2;
                for (pool, count) in [(&self.high[..n_high], half), (&self.low[..n_low], n - half)]
                {
                    for _ in 0..count {
                        let idx = if pool.is_empty() {
                            rng.random_range(0..self.storage.len())
                        } else {
                            pool[rng.random_range(0..pool.len())]
                        };
                        out.push(&self.storage[idx]);
                    }
                }
                out
            }
        }
    }

    /// The reward median the split uses: an O(1) read of the sorted
    /// copy, or a fresh sort once a NaN dropped it.
    fn median(&self) -> f64 {
        match &self.sorted {
            Some(sorted) => median_of_sorted(sorted),
            None => self.reward_median(),
        }
    }

    /// Fraction of stored transitions whose reward is at or above the
    /// reward median (`NaN` when empty) — the occupancy of the "good"
    /// half that diversity sampling draws from. Near 1.0 it signals a
    /// degenerate reward landscape where the median split collapses.
    pub fn above_median_fraction(&self) -> f64 {
        if self.storage.is_empty() {
            return f64::NAN;
        }
        let median = self.median();
        let above = self.rewards.iter().filter(|&&r| r >= median).count();
        above as f64 / self.storage.len() as f64
    }

    /// Median of the stored rewards (`NaN` when empty).
    ///
    /// Always recomputes with a fresh sort (it is the reference the
    /// maintained sorted copy is tested against).
    pub fn reward_median(&self) -> f64 {
        let mut rewards = self.rewards.clone();
        median_of_unsorted(&mut rewards)
    }
}

/// Sorts `rewards` in place and returns the median (`NaN` when empty).
fn median_of_unsorted(rewards: &mut [f64]) -> f64 {
    rewards.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    median_of_sorted(rewards)
}

/// Median of an ascending slice (`NaN` when empty). Single definition
/// shared by the maintained and the freshly sorted paths.
fn median_of_sorted(rewards: &[f64]) -> f64 {
    let n = rewards.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        rewards[n / 2]
    } else {
        0.5 * (rewards[n / 2 - 1] + rewards[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(reward: f64) -> Transition {
        Transition {
            state: vec![0.0],
            action: vec![0.0],
            reward,
            next_state: vec![0.0],
            done: false,
        }
    }

    #[test]
    fn ring_overwrite_keeps_capacity() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i as f64));
        }
        assert_eq!(buf.len(), 3);
        // Oldest (0, 1) overwritten by 3 and 4.
        let rewards: Vec<f64> = buf.storage.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&2.0));
        assert!(rewards.contains(&3.0));
        assert!(rewards.contains(&4.0));
    }

    #[test]
    fn uniform_sampling_covers_buffer() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..10 {
            buf.push(t(i as f64));
        }
        let mut rng = DetRng::seed_from_u64(0);
        let batch = buf.sample(200, SamplingStrategy::Uniform, &mut rng);
        assert_eq!(batch.len(), 200);
        let distinct: std::collections::BTreeSet<i64> =
            batch.iter().map(|x| x.reward as i64).collect();
        assert!(distinct.len() >= 8, "uniform sample too concentrated");
    }

    #[test]
    fn diversity_sampling_balances_median_halves() {
        let mut buf = ReplayBuffer::new(100);
        // 90 bad transitions, 10 good ones.
        for _ in 0..90 {
            buf.push(t(0.0));
        }
        for _ in 0..10 {
            buf.push(t(10.0));
        }
        let mut rng = DetRng::seed_from_u64(1);
        let batch = buf.sample(100, SamplingStrategy::Diversity, &mut rng);
        let high = batch.iter().filter(|x| x.reward >= 5.0).count();
        // Exactly half the batch must come from the >= median pool.
        // Median of (90 zeros, 10 tens) = 0, so "high" pool = everything;
        // the balancing shows up through the below-median half being empty
        // and falling back. Instead check a clean split:
        let _ = high;
        let mut buf2 = ReplayBuffer::new(100);
        for i in 0..50 {
            buf2.push(t(i as f64)); // rewards 0..49, median 24.5
        }
        let batch2 = buf2.sample(100, SamplingStrategy::Diversity, &mut rng);
        let high2 = batch2.iter().filter(|x| x.reward >= 24.5).count();
        assert_eq!(high2, 50, "diversity batch must be half high, half low");
    }

    #[test]
    fn diversity_sampling_handles_constant_rewards() {
        let mut buf = ReplayBuffer::new(10);
        for _ in 0..10 {
            buf.push(t(1.0));
        }
        let mut rng = DetRng::seed_from_u64(2);
        let batch = buf.sample(8, SamplingStrategy::Diversity, &mut rng);
        assert_eq!(batch.len(), 8);
    }

    #[test]
    fn empty_buffer_samples_nothing() {
        let mut buf = ReplayBuffer::new(5);
        let mut rng = DetRng::seed_from_u64(3);
        assert!(buf
            .sample(4, SamplingStrategy::Uniform, &mut rng)
            .is_empty());
        assert!(buf.reward_median().is_nan());
    }

    #[test]
    fn diversity_sample_rewards_are_pinned() {
        // Regression pin for the cached-median refactor: the exact draw
        // sequence of a seeded diversity sample must never change, or
        // every committed training baseline shifts.
        let mut buf = ReplayBuffer::new(16);
        for i in 0..10 {
            buf.push(t(i as f64)); // rewards 0..9, median 4.5
        }
        let mut rng = DetRng::seed_from_u64(42);
        let drawn: Vec<f64> = buf
            .sample(6, SamplingStrategy::Diversity, &mut rng)
            .iter()
            .map(|x| x.reward)
            .collect();
        // First half from the >= 4.5 pool, second half from below it.
        assert!(drawn[..3].iter().all(|&r| r >= 4.5));
        assert!(drawn[3..].iter().all(|&r| r < 4.5));
        assert_eq!(drawn, vec![6.0, 8.0, 9.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn cached_median_matches_recompute_under_interleaved_push_sample() {
        // Interleave pushes (which invalidate the cache) with samples
        // (which refresh it) and check the cached value and the drawn
        // minibatches stay bitwise-identical to a never-cached reference.
        let mut cached = ReplayBuffer::new(8);
        let mut reference = ReplayBuffer::new(8);
        let mut rng_c = DetRng::seed_from_u64(7);
        let mut rng_r = DetRng::seed_from_u64(7);
        for step in 0..30 {
            let r = ((step * 37) % 11) as f64 - 5.0;
            cached.push(t(r));
            reference.push(t(r));
            if step % 3 == 0 {
                continue; // some pushes without a sample in between
            }
            // Sample twice per step: the second call hits the warm cache.
            for _ in 0..2 {
                let a: Vec<f64> = cached
                    .sample(4, SamplingStrategy::Diversity, &mut rng_c)
                    .iter()
                    .map(|x| x.reward)
                    .collect();
                // The reference is a fresh clone sampled once per call,
                // so reusing state across samples cannot mask a drift.
                let b: Vec<f64> = reference
                    .clone()
                    .sample(4, SamplingStrategy::Diversity, &mut rng_r)
                    .iter()
                    .map(|x| x.reward)
                    .collect();
                assert_eq!(a, b, "cached vs recomputed diverged at step {step}");
            }
            assert_eq!(cached.median(), cached.reward_median());
        }
    }

    /// Diversity sampling as it was before the sorted copy: a stable
    /// `partial_cmp` sort of every reward on every call, then the same
    /// split and the same draws.
    fn sort_every_call_sample(rewards: &[f64], n: usize, rng: &mut DetRng) -> Vec<f64> {
        let mut sorted = rewards.to_vec();
        let median = median_of_unsorted(&mut sorted);
        let (mut high, mut low) = (Vec::new(), Vec::new());
        for (i, &reward) in rewards.iter().enumerate() {
            if reward >= median {
                high.push(i);
            } else {
                low.push(i);
            }
        }
        let half = n / 2;
        let mut out = Vec::new();
        for (pool, count) in [(&high, half), (&low, n - half)] {
            for _ in 0..count {
                let idx = if pool.is_empty() {
                    rng.random_range(0..rewards.len())
                } else {
                    pool[rng.random_range(0..pool.len())]
                };
                out.push(rewards[idx]);
            }
        }
        out
    }

    #[test]
    fn sorted_copy_matches_a_sort_every_call_reference() {
        // A 5-slot ring driven through many overwrites of signed-zero
        // ties and repeats, then a NaN (which drops the sorted copy).
        let cycle = [0.0, -0.0, 1.5, -0.0, -2.0, 0.0, 1.5, 3.0, -0.0];
        let mut buf = ReplayBuffer::new(5);
        let mut ring: Vec<f64> = Vec::new();
        let mut rng_buf = DetRng::seed_from_u64(11);
        let mut rng_ref = DetRng::seed_from_u64(11);
        for step in 0..60 {
            let reward = if step == 40 {
                f64::NAN
            } else {
                cycle[step % cycle.len()]
            };
            buf.push(t(reward));
            if ring.len() < 5 {
                ring.push(reward);
            } else {
                ring[(step - 5) % 5] = reward;
            }
            assert_eq!(buf.sorted.is_some(), step < 40, "step {step}");
            if let Some(sorted) = &buf.sorted {
                let mut expect = ring.clone();
                expect.sort_by(f64::total_cmp);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(sorted), bits(&expect), "step {step}");
            }
            let mut reference = ring.clone();
            let median = median_of_unsorted(&mut reference);
            let got = buf.median();
            assert!(
                got == median || (got.is_nan() && median.is_nan()),
                "step {step}"
            );
            let drawn: Vec<u64> = buf
                .sample(6, SamplingStrategy::Diversity, &mut rng_buf)
                .iter()
                .map(|x| x.reward.to_bits())
                .collect();
            let expect: Vec<u64> = sort_every_call_sample(&ring, 6, &mut rng_ref)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(drawn, expect, "step {step}");
        }
    }

    #[test]
    fn median_odd_and_even() {
        let mut buf = ReplayBuffer::new(10);
        buf.push(t(1.0));
        buf.push(t(3.0));
        buf.push(t(2.0));
        assert_eq!(buf.reward_median(), 2.0);
        buf.push(t(4.0));
        assert_eq!(buf.reward_median(), 2.5);
    }

    #[test]
    fn above_median_fraction_tracks_split() {
        let mut buf = ReplayBuffer::new(10);
        assert!(buf.above_median_fraction().is_nan());
        for i in 0..4 {
            buf.push(t(i as f64)); // rewards 0,1,2,3 — median 1.5
        }
        assert_eq!(buf.above_median_fraction(), 0.5);
        for _ in 0..4 {
            buf.push(t(3.0)); // now most mass sits at the top
        }
        assert!(buf.above_median_fraction() >= 0.5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ReplayBuffer::new(0);
    }
}
