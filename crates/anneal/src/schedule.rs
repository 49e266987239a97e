//! Temperature schedules (`T = D(T)` of Algorithm 1, line 14).

/// A cooling schedule mapping iteration progress to temperature.
///
/// The annealing driver walks a schedule as steps: runs of iterations
/// that share one temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Geometric decay from `t_max` to `t_min` (the classic SA choice).
    Geometric {
        /// Starting temperature.
        t_max: f64,
        /// Final temperature.
        t_min: f64,
    },
    /// Linear interpolation from `t_max` down to `t_min`.
    Linear {
        /// Starting temperature.
        t_max: f64,
        /// Final temperature.
        t_min: f64,
    },
    /// Constant temperature (Metropolis sampling; useful for ablations).
    Constant {
        /// The fixed temperature.
        t: f64,
    },
    /// Geometric decay per *sweep*: the temperature starts at `t_max`,
    /// holds for `sweep_len` iterations, and is then multiplied by
    /// `(t_min / t_max)^(1 / (sweeps − 1))` — a running product, the
    /// cooling of the emulated D-Wave reads in `cnash-qubo`, which alone
    /// set it. It has no validating constructor: the reads validate their
    /// temperatures in `AnnealParams::new`.
    SweepGeometric {
        /// Starting temperature.
        t_max: f64,
        /// Temperature of the last sweep (up to the product's rounding).
        t_min: f64,
        /// Iterations per sweep (`≥ 1`; 0 panics).
        sweep_len: usize,
    },
}

impl Schedule {
    /// Geometric schedule with validation.
    ///
    /// # Panics
    ///
    /// Panics unless `t_max ≥ t_min > 0`.
    pub fn geometric(t_max: f64, t_min: f64) -> Self {
        assert!(t_min > 0.0 && t_max >= t_min, "need t_max >= t_min > 0");
        Schedule::Geometric { t_max, t_min }
    }

    /// Linear schedule with validation.
    ///
    /// # Panics
    ///
    /// Panics unless `t_max ≥ t_min > 0`.
    pub fn linear(t_max: f64, t_min: f64) -> Self {
        assert!(t_min > 0.0 && t_max >= t_min, "need t_max >= t_min > 0");
        Schedule::Linear { t_max, t_min }
    }

    /// Constant schedule with validation.
    ///
    /// # Panics
    ///
    /// Panics unless `t > 0`.
    pub fn constant(t: f64) -> Self {
        assert!(t > 0.0, "temperature must be positive");
        Schedule::Constant { t }
    }

    /// Temperature at iteration `iter` of `total` (0-based; `total ≥ 1`).
    pub fn temperature(&self, iter: usize, total: usize) -> f64 {
        let frac = if total <= 1 {
            1.0
        } else {
            iter as f64 / (total - 1) as f64
        };
        match *self {
            Schedule::Geometric { t_max, t_min } => t_max * (t_min / t_max).powf(frac),
            Schedule::Linear { t_max, t_min } => t_max + (t_min - t_max) * frac,
            Schedule::Constant { t } => t,
            Schedule::SweepGeometric {
                t_max,
                t_min,
                sweep_len,
            } => {
                let ratio = sweep_ratio(t_max, t_min, total.div_ceil(sweep_len));
                (0..iter / sweep_len).fold(t_max, |t, _| t * ratio)
            }
        }
    }

    /// The schedule over `total` iterations as `(temperature, len)`
    /// steps whose lens sum to `total`: one step per sweep of a
    /// per-sweep schedule, one per iteration otherwise. The temperatures
    /// equal [`Schedule::temperature`] at every iteration of their step.
    pub(crate) fn steps(self, total: usize) -> impl Iterator<Item = (f64, usize)> {
        let (block, mut running, ratio) = match self {
            Schedule::SweepGeometric {
                t_max,
                t_min,
                sweep_len,
            } => (
                sweep_len,
                t_max,
                sweep_ratio(t_max, t_min, total.div_ceil(sweep_len)),
            ),
            _ => (1, 0.0, 1.0),
        };
        (0..total).step_by(block).map(move |start| {
            let t = match self {
                // A running product, as the per-sweep decay is defined.
                Schedule::SweepGeometric { .. } => {
                    let t = running;
                    running *= ratio;
                    t
                }
                _ => self.temperature(start, total),
            };
            (t, block.min(total - start))
        })
    }
}

/// The per-sweep factor of a geometric decay from `t_max` to `t_min`
/// over `sweeps` sweeps (1 for a single sweep).
fn sweep_ratio(t_max: f64, t_min: f64, sweeps: usize) -> f64 {
    if sweeps > 1 {
        (t_min / t_max).powf(1.0 / (sweeps - 1) as f64)
    } else {
        1.0
    }
}

impl Default for Schedule {
    /// A broadly useful geometric schedule.
    fn default() -> Self {
        Schedule::Geometric {
            t_max: 1.0,
            t_min: 1e-3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_endpoints() {
        let s = Schedule::geometric(10.0, 0.1);
        assert!((s.temperature(0, 100) - 10.0).abs() < 1e-12);
        assert!((s.temperature(99, 100) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn geometric_is_monotone_decreasing() {
        let s = Schedule::geometric(5.0, 0.05);
        let mut last = f64::INFINITY;
        for k in 0..50 {
            let t = s.temperature(k, 50);
            assert!(t < last);
            last = t;
        }
    }

    #[test]
    fn linear_midpoint() {
        let s = Schedule::linear(2.0, 1.0);
        assert!((s.temperature(50, 101) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn constant_is_constant() {
        let s = Schedule::constant(0.7);
        assert_eq!(s.temperature(0, 10), 0.7);
        assert_eq!(s.temperature(9, 10), 0.7);
    }

    #[test]
    fn single_iteration_uses_final_temperature() {
        let s = Schedule::geometric(10.0, 0.1);
        assert!((s.temperature(0, 1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn steps_cover_the_budget_at_the_pointwise_temperatures() {
        let schedules = [
            Schedule::geometric(5.0, 0.05),
            Schedule::linear(2.0, 1.0),
            Schedule::constant(0.7),
            Schedule::SweepGeometric {
                t_max: 60.0,
                t_min: 0.05,
                sweep_len: 7,
            },
        ];
        for s in schedules {
            for total in [0usize, 1, 6, 7, 50] {
                let mut iter = 0;
                for (t, len) in s.steps(total) {
                    assert!(len > 0);
                    for k in iter..iter + len {
                        assert_eq!(t.to_bits(), s.temperature(k, total).to_bits());
                    }
                    iter += len;
                }
                assert_eq!(iter, total, "{s:?} over {total}");
            }
        }
    }

    #[test]
    fn sweep_geometric_is_a_running_product_per_sweep() {
        let s = Schedule::SweepGeometric {
            t_max: 10.0,
            t_min: 0.1,
            sweep_len: 4,
        };
        let steps: Vec<(f64, usize)> = s.steps(12).collect();
        let ratio = 0.01f64.powf(0.5);
        assert_eq!(
            steps,
            vec![(10.0, 4), (10.0 * ratio, 4), (10.0 * ratio * ratio, 4)]
        );
        assert!((steps[2].0 - 0.1).abs() < 1e-12);
        // A partial last sweep keeps the remainder.
        let lens: Vec<usize> = s.steps(10).map(|(_, n)| n).collect();
        assert_eq!(lens, vec![4, 4, 2]);
        // One sweep holds t_max.
        assert_eq!(s.steps(3).collect::<Vec<_>>(), vec![(10.0, 3)]);
    }

    #[test]
    #[should_panic(expected = "t_max >= t_min")]
    fn rejects_inverted_range() {
        let _ = Schedule::geometric(0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_constant() {
        let _ = Schedule::constant(0.0);
    }
}
