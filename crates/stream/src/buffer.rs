//! Per-object sample buffers: the stream's window onto each trajectory.
//!
//! A buffer holds an object's samples from just below the refinement fold's
//! cursor up to the feed watermark. It answers the two questions the
//! pipeline asks:
//!
//! * **Filter**: which sample *runs* fall into a λ-partition's window
//!   (including the bracketing samples just outside it), severed wherever a
//!   sample gap exceeds the eviction horizon?
//! * **Refinement**: where is the object at tick `t` — exactly the virtual-
//!   point semantics of [`trajectory::Trajectory::location_at`], except that
//!   gaps beyond the horizon are not interpolated?
//!
//! A buffer can hold a horizon's worth of samples, because partition closes
//! lag the watermark, while every question is about the window being closed
//! — the front of the buffer. So indices are found by galloping from the
//! front (`O(log λ)`, not `O(log buffer)`), and trimming advances a head
//! offset, compacting only once the dead prefix outgrows the live samples:
//! a partition close costs `O(window)`, not `O(buffer)`.

use trajectory::{gallop, Point, TimePoint, TrajPoint};

/// One object's buffered samples, time-sorted and duplicate-free (the feed
/// validator guarantees both).
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjectBuffer {
    /// `samples[head..]` are live; the prefix is trimmed and awaits
    /// compaction.
    samples: Vec<TrajPoint>,
    head: usize,
}

/// Returns `true` when interpolation may bridge the gap between two
/// consecutive samples: the number of missing ticks between them must not
/// exceed the horizon (`None` = any gap bridges, the batch semantics).
#[inline]
pub(crate) fn bridgeable(before: TimePoint, after: TimePoint, horizon: Option<TimePoint>) -> bool {
    match horizon {
        None => true,
        // The missing-tick count `after - before - 1` can exceed `i64` when a
        // negative-epoch sample meets a far-future watermark; a gap too wide
        // to even represent is certainly too wide to bridge.
        Some(h) => match after.checked_sub(before).and_then(|gap| gap.checked_sub(1)) {
            Some(missing) => missing <= h,
            None => false,
        },
    }
}

impl ObjectBuffer {
    /// The buffered samples, oldest first (checkpoint export).
    pub fn samples(&self) -> &[TrajPoint] {
        &self.samples[self.head..]
    }

    /// Rebuilds a buffer from checkpointed samples. Returns `None` unless the
    /// samples are non-empty and strictly increasing in time — the invariants
    /// the feed validator enforces on the live path.
    pub fn from_samples(samples: Vec<TrajPoint>) -> Option<Self> {
        if samples.is_empty() || samples.windows(2).any(|w| w[0].t >= w[1].t) {
            return None;
        }
        Some(ObjectBuffer { samples, head: 0 })
    }

    /// Appends a sample (the validator has already enforced feed order).
    pub fn push(&mut self, sample: TrajPoint) {
        debug_assert!(self.samples.last().is_none_or(|last| last.t < sample.t));
        self.samples.push(sample);
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.samples.len() - self.head
    }

    /// Timestamp of the newest buffered sample. A buffer always holds at
    /// least one sample (it is created by its first push and trimming keeps
    /// the newest).
    pub fn last_t(&self) -> TimePoint {
        // lint: allow(no-unwrap-in-lib) — buffers are created by their first push and trimming keeps the newest
        self.samples.last().expect("buffers are never empty").t
    }

    /// The sample runs intersecting `[start, end]`, each run extended to the
    /// bracketing samples (last sample at or before `start`, first sample at
    /// or after `end`) and severed wherever consecutive samples straddle a
    /// gap larger than the horizon.
    ///
    /// With an unbounded horizon this is a single slice — exactly the
    /// samples a λ-partition's sliding-window DP must see.
    pub fn runs_for_window(
        &self,
        start: TimePoint,
        end: TimePoint,
        horizon: Option<TimePoint>,
    ) -> Vec<&[TrajPoint]> {
        // Bracket indices: [i0, i1] inclusive.
        let samples = self.samples();
        let i0 = gallop(samples, |p| p.t <= start).saturating_sub(1);
        let after_end = i0 + gallop(&samples[i0..], |p| p.t < end);
        let i1 = after_end.min(samples.len() - 1);
        let window = &samples[i0..=i1];
        if window.is_empty() {
            return Vec::new();
        }
        let mut runs = Vec::new();
        let mut run_start = 0usize;
        for i in 1..window.len() {
            if !bridgeable(window[i - 1].t, window[i].t, horizon) {
                runs.push(&window[run_start..i]);
                run_start = i;
            }
        }
        runs.push(&window[run_start..]);
        runs
    }

    /// The object's (possibly virtual) position at tick `t`, together with
    /// whether it was interpolated. `None` outside the buffered interval or
    /// across a gap larger than the horizon.
    ///
    /// Exact samples and the shared [`TrajPoint::interpolate`] arithmetic
    /// make the result bit-identical to
    /// [`trajectory::Trajectory::location_at`] whenever the bracketing
    /// samples are buffered and the gap bridges.
    pub fn position_at(&self, t: TimePoint, horizon: Option<TimePoint>) -> Option<(Point, bool)> {
        let samples = self.samples();
        let i = gallop(samples, |p| p.t < t);
        let after = samples.get(i)?;
        if after.t == t {
            return Some((after.position(), false));
        }
        let before = &samples[i.checked_sub(1)?];
        if !bridgeable(before.t, after.t, horizon) {
            return None;
        }
        Some((TrajPoint::interpolate(before, after, t), true))
    }

    /// Drops samples no longer needed once the refinement fold has passed
    /// `cursor`: everything strictly before the newest sample at or before
    /// `cursor` (which stays, as the interpolation bracket for later ticks).
    /// Returns the number of samples dropped.
    pub fn trim_before(&mut self, cursor: TimePoint) -> usize {
        let dropped = gallop(self.samples(), |p| p.t <= cursor).saturating_sub(1);
        self.head += dropped;
        // Compact once the dead prefix outgrows the live samples: a
        // compaction moves fewer live samples than it frees dead ones, so
        // trimming costs O(1) amortised per dropped sample.
        if self.head > self.len() {
            self.samples.drain(..self.head);
            self.head = 0;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn buffer(times: &[i64]) -> ObjectBuffer {
        let mut b = ObjectBuffer::default();
        for &t in times {
            b.push(TrajPoint::new(t as f64, 0.0, t));
        }
        b
    }

    #[test]
    fn runs_include_bracketing_samples() {
        let b = buffer(&[0, 2, 5, 9, 12]);
        // Window [3, 8]: bracket-before is t=2, bracket-after is t=9.
        let runs = b.runs_for_window(3, 8, None);
        assert_eq!(runs.len(), 1);
        let times: Vec<i64> = runs[0].iter().map(|p| p.t).collect();
        assert_eq!(times, vec![2, 5, 9]);
        // A window past the data clamps to the final sample.
        let runs = b.runs_for_window(20, 30, None);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].last().unwrap().t, 12);
    }

    #[test]
    fn runs_sever_at_gaps_larger_than_the_horizon() {
        let b = buffer(&[0, 1, 2, 10, 11]);
        // Gap of 7 missing ticks between t=2 and t=10.
        let runs = b.runs_for_window(0, 11, Some(5));
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].last().unwrap().t, 2);
        assert_eq!(runs[1].first().unwrap().t, 10);
        // A horizon of exactly the gap size bridges it.
        assert_eq!(b.runs_for_window(0, 11, Some(7)).len(), 1);
        assert_eq!(b.runs_for_window(0, 11, None).len(), 1);
    }

    #[test]
    fn position_matches_trajectory_interpolation() {
        use trajectory::Trajectory;
        let times = [0i64, 2, 5, 9];
        let b = buffer(&times);
        let traj = Trajectory::from_tuples(times.iter().map(|&t| (t as f64, 0.0, t))).unwrap();
        for t in -1..=10 {
            let expected = traj.location_at(t);
            let got = b.position_at(t, None).map(|(p, _)| p);
            assert_eq!(got, expected, "t={t}");
        }
        let (_, interpolated) = b.position_at(2, None).unwrap();
        assert!(!interpolated);
        let (_, interpolated) = b.position_at(3, None).unwrap();
        assert!(interpolated);
    }

    #[test]
    fn position_refuses_to_bridge_beyond_the_horizon() {
        let b = buffer(&[0, 10]);
        assert!(b.position_at(5, None).is_some());
        assert!(
            b.position_at(5, Some(9)).is_some(),
            "9 missing ticks, horizon 9: exactly at the horizon bridges"
        );
        assert!(b.position_at(5, Some(8)).is_none());
        // Exact samples are always visible.
        assert!(b.position_at(0, Some(1)).is_some());
        assert!(b.position_at(10, Some(1)).is_some());
    }

    #[test]
    fn bridgeable_survives_extreme_gaps_and_horizons() {
        // A gap wider than i64 severs instead of wrapping (debug: panicking).
        assert!(!bridgeable(i64::MIN + 10, i64::MAX - 10, Some(i64::MAX)));
        assert!(bridgeable(i64::MIN + 10, i64::MAX - 10, None));
        // Negative-epoch samples under a huge horizon always bridge.
        assert!(bridgeable(-100, -95, Some(i64::MAX)));
        // Gap of exactly i64::MAX ticks: i64::MAX - 1 missing, still bridges.
        assert!(bridgeable(0, i64::MAX, Some(i64::MAX)));
    }

    #[test]
    fn checkpoint_round_trip_preserves_samples() {
        let b = buffer(&[0, 2, 5, 9]);
        let restored = ObjectBuffer::from_samples(b.samples().to_vec()).unwrap();
        assert_eq!(restored.samples(), b.samples());
        assert!(ObjectBuffer::from_samples(Vec::new()).is_none());
        let out_of_order = vec![TrajPoint::new(0.0, 0.0, 3), TrajPoint::new(0.0, 0.0, 3)];
        assert!(ObjectBuffer::from_samples(out_of_order).is_none());
    }

    #[test]
    fn trim_keeps_the_bracket_sample() {
        let mut b = buffer(&[0, 2, 5, 9]);
        assert_eq!(
            b.trim_before(6),
            2,
            "t=0 and t=2 go, t=5 stays as the bracket"
        );
        assert_eq!(b.len(), 2);
        assert!(
            b.position_at(7, None).is_some(),
            "interpolation across the cursor still works"
        );
        assert_eq!(b.trim_before(0), 0, "nothing older than the first sample");
        assert_eq!(b.last_t(), 9);
    }

    /// The binary-search versions of the buffer queries over a plain
    /// sample vector, as the buffer computed them before it galloped.
    mod reference {
        use super::*;

        pub fn runs(
            samples: &[TrajPoint],
            start: TimePoint,
            end: TimePoint,
            horizon: Option<TimePoint>,
        ) -> Vec<Vec<TrajPoint>> {
            let i0 = samples.partition_point(|p| p.t <= start).saturating_sub(1);
            let i1 = samples
                .partition_point(|p| p.t < end)
                .min(samples.len() - 1);
            let window = &samples[i0..=i1];
            let mut runs = Vec::new();
            let mut run_start = 0;
            for i in 1..window.len() {
                if !bridgeable(window[i - 1].t, window[i].t, horizon) {
                    runs.push(window[run_start..i].to_vec());
                    run_start = i;
                }
            }
            runs.push(window[run_start..].to_vec());
            runs
        }

        pub fn position(
            samples: &[TrajPoint],
            t: TimePoint,
            horizon: Option<TimePoint>,
        ) -> Option<(Point, bool)> {
            match samples.binary_search_by_key(&t, |p| p.t) {
                Ok(i) => Some((samples[i].position(), false)),
                Err(i) if i == 0 || i == samples.len() => None,
                Err(i) => bridgeable(samples[i - 1].t, samples[i].t, horizon).then(|| {
                    (
                        TrajPoint::interpolate(&samples[i - 1], &samples[i], t),
                        true,
                    )
                }),
            }
        }

        pub fn trim(samples: &mut Vec<TrajPoint>, cursor: TimePoint) -> usize {
            let keep_from = samples.partition_point(|p| p.t <= cursor).saturating_sub(1);
            samples.drain(..keep_from).count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Galloping from the front and head-offset trimming answer exactly
        /// what the whole-buffer binary searches did, through long
        /// push / trim sequences that exercise the compaction.
        #[test]
        fn galloping_buffer_matches_binary_search(
            first in -50i64..50,
            steps in proptest::collection::vec(
                (0u8..3, (-5i64..80, 0i64..30), proptest::collection::vec(1i64..12, 1..40)),
                1..120,
            ),
            horizon in 0i64..11,
        ) {
            // Each step pushes samples `gap` ticks apart, trims at an
            // offset from the front, or queries a window and its ticks.
            let horizon = (horizon < 10).then_some(horizon);
            let mut buffer = ObjectBuffer::default();
            let mut model = Vec::new();
            let mut next_t = first;
            let push = |buffer: &mut ObjectBuffer, model: &mut Vec<TrajPoint>, t: i64| {
                let p = TrajPoint::new(t as f64 * 0.5, (t % 7) as f64, t);
                buffer.push(p);
                model.push(p);
            };
            push(&mut buffer, &mut model, next_t);
            for (kind, (offset, len), gaps) in steps {
                let front = model[0].t;
                match kind {
                    0 => {
                        for gap in gaps {
                            next_t += gap;
                            push(&mut buffer, &mut model, next_t);
                        }
                    }
                    1 => {
                        let cursor = front + offset;
                        prop_assert_eq!(
                            buffer.trim_before(cursor),
                            reference::trim(&mut model, cursor)
                        );
                    }
                    _ => {
                        let (start, end) = (front + offset, front + offset + len);
                        let runs: Vec<Vec<TrajPoint>> = buffer
                            .runs_for_window(start, end, horizon)
                            .into_iter()
                            .map(<[TrajPoint]>::to_vec)
                            .collect();
                        prop_assert_eq!(runs, reference::runs(&model, start, end, horizon));
                        for t in start..=end {
                            prop_assert_eq!(
                                buffer.position_at(t, horizon),
                                reference::position(&model, t, horizon)
                            );
                        }
                    }
                }
                prop_assert_eq!(buffer.samples(), &model[..]);
                prop_assert_eq!(buffer.len(), model.len());
                prop_assert_eq!(buffer.last_t(), model[model.len() - 1].t);
            }
        }
    }
}
