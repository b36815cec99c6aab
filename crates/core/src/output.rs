//! Algorithm outputs, run metrics, and errors.

use std::fmt;

use fagin_middleware::{AccessError, AccessStats, Grade, ObjectId};

/// One output item: an object, with its overall grade when the algorithm
/// determined it.
///
/// TA/FA variants always report grades (a *top-k answer* in the paper's
/// terminology); NRA/CA report the top-k *objects* and may leave grades
/// unknown (§8.1 explains why demanding grades without random access can be
/// arbitrarily more expensive).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ScoredObject {
    /// The object.
    pub object: ObjectId,
    /// Its overall grade `t(R)`, if determined.
    pub grade: Option<Grade>,
}

impl fmt::Display for ScoredObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.grade {
            Some(g) => write!(f, "{} (grade {})", self.object, g),
            None => write!(f, "{} (grade unknown)", self.object),
        }
    }
}

/// Why a run ended. Every run reports one: exact convergence, a θ-scaled
/// stop rule, or an anytime trigger (see [`crate::anytime::AnytimeConfig`])
/// that cut the run short and returned its best certified snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HaltReason {
    /// The algorithm's own exact halting rule fired (or the lists were
    /// exhausted): the answer is exact.
    #[default]
    Converged,
    /// A θ-relaxed (θ > 1) stop rule fired: the run halted as soon as its
    /// θ-scaled threshold test passed, and the answer carries the
    /// configured guarantee. Not an interruption — the algorithm ran to
    /// its own (relaxed) completion.
    ThetaSatisfied,
    /// An anytime deadline passed at a round boundary.
    Deadline,
    /// An anytime cost watermark was reached at a round boundary.
    CostWatermark,
    /// An anytime round cap was reached at a round boundary.
    RoundCap,
    /// The middleware's hard cost budget ran out mid-run and the anytime
    /// path salvaged the best certified snapshot instead of erroring.
    BudgetExhausted,
    /// One or more backing sources died mid-run (retries exhausted or a
    /// circuit breaker tripped) and the run could no longer make the
    /// progress its exact stop rule needed. The answer is the best
    /// *certified* snapshot: its `approximation_guarantee` θ̂ was computed
    /// from sound `W`/`B` bounds, which stay valid when a list freezes at
    /// its last-seen grade — so the degraded answer is never silently
    /// wrong, only certifiably approximate.
    SourceLost,
}

impl HaltReason {
    /// Whether the run was cut short by an anytime trigger — i.e. ended
    /// before its own (exact or θ-relaxed) stop rule was satisfied.
    /// θ-halting is *not* an interruption: the serving layer treats
    /// interrupted answers as degraded, and a θ-run delivered exactly
    /// what was asked of it.
    pub fn is_interrupted(&self) -> bool {
        !matches!(self, HaltReason::Converged | HaltReason::ThetaSatisfied)
    }

    /// Stable numeric code (trace-event payloads).
    pub fn code(&self) -> u32 {
        match self {
            HaltReason::Converged => 0,
            HaltReason::ThetaSatisfied => 1,
            HaltReason::Deadline => 2,
            HaltReason::CostWatermark => 3,
            HaltReason::RoundCap => 4,
            HaltReason::BudgetExhausted => 5,
            HaltReason::SourceLost => 6,
        }
    }

    /// Stable lowercase label (slow-query log, metrics export).
    pub fn label(&self) -> &'static str {
        match self {
            HaltReason::Converged => "converged",
            HaltReason::ThetaSatisfied => "theta_satisfied",
            HaltReason::Deadline => "deadline",
            HaltReason::CostWatermark => "cost_watermark",
            HaltReason::RoundCap => "round_cap",
            HaltReason::BudgetExhausted => "budget_exhausted",
            HaltReason::SourceLost => "source_lost",
        }
    }

    /// The reason with code `code`, if any ([`HaltReason::code`]'s
    /// inverse; trace-event decoding).
    pub fn from_code(code: u32) -> Option<HaltReason> {
        [
            HaltReason::Converged,
            HaltReason::ThetaSatisfied,
            HaltReason::Deadline,
            HaltReason::CostWatermark,
            HaltReason::RoundCap,
            HaltReason::BudgetExhausted,
            HaltReason::SourceLost,
        ]
        .into_iter()
        .find(|r| r.code() == code)
    }
}

/// Execution metrics beyond raw access counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Rounds of sorted access in parallel (the paper's depth `d`).
    pub rounds: u64,
    /// Peak number of object records buffered at once.
    ///
    /// Theorem 4.2: TA's buffers are bounded (≤ `k` objects plus per-list
    /// bookkeeping) while FA's match buffer can grow with `N`; NRA's
    /// candidate set can too (Remark 8.7). For NRA/CA this counts *live*
    /// candidates: the bound engine permanently evicts objects whose upper
    /// bound `B` has dropped strictly below `M_k` (they can never re-enter
    /// the top `k`), so the peak tracks the viable working set rather than
    /// every object ever seen.
    pub peak_buffer: usize,
    /// The threshold value `τ` when the algorithm halted, if it computes one.
    pub final_threshold: Option<Grade>,
    /// For approximation runs: the guarantee `θ` such that the output is a
    /// θ-approximation (1.0 = exact). Anytime-interrupted runs carry the
    /// *achieved* certificate `θ̂` computed from the bounds at the best
    /// snapshot.
    pub approximation_guarantee: f64,
    /// Why the run ended ([`HaltReason::Converged`] unless an anytime
    /// trigger cut it short).
    pub halt: HaltReason,
    /// Number of candidates whose grade was fully resolved via random access
    /// (CA bookkeeping).
    pub random_access_phases: u64,
    /// Number of `W`/`B` aggregation evaluations the bound bookkeeping
    /// performed: one per learned field (the `W` refresh), one fresh `B`
    /// per candidate displaced from `T_k`, plus every lazy refresh of a
    /// stale outsider `B` bound during halting checks, selection
    /// tie-breaks, and CA's random-access target choice. Under the
    /// incremental engine this is a small constant per *access* that does
    /// not grow with `k` (`T_k` members are never re-evaluated just for
    /// being members), not quadratic in the candidate count as the
    /// historical exhaustive strategy was (Remark 8.7).
    pub bound_recomputations: u64,
    /// Objects the NRA/CA bound engine permanently evicted via the
    /// viability rule (`B(R) < M_k` with `T_k` full ⇒ `R` can never enter
    /// the top `k`), in eviction order. Ids can repeat when a dead object
    /// is re-encountered under sorted access and re-evicted. Empty for
    /// algorithms that do not evict.
    pub evicted: Vec<ObjectId>,
}

impl RunMetrics {
    pub(crate) fn new() -> Self {
        RunMetrics {
            approximation_guarantee: 1.0,
            ..Default::default()
        }
    }
}

/// The result of a top-`k` run.
#[derive(Clone, Debug)]
pub struct TopKOutput {
    /// The top-`k` items, highest grade first (where grades are known;
    /// otherwise in the algorithm's confidence order).
    pub items: Vec<ScoredObject>,
    /// Snapshot of the session's access counters at completion.
    pub stats: AccessStats,
    /// Additional run metrics.
    pub metrics: RunMetrics,
}

impl TopKOutput {
    /// The output objects, in order.
    pub fn objects(&self) -> Vec<ObjectId> {
        self.items.iter().map(|i| i.object).collect()
    }

    /// The output grades, where known, in order.
    pub fn grades(&self) -> Vec<Option<Grade>> {
        self.items.iter().map(|i| i.grade).collect()
    }
}

impl fmt::Display for TopKOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "top-{}:", self.items.len())?;
        for (rank, item) in self.items.iter().enumerate() {
            writeln!(f, "  {:>3}. {}", rank + 1, item)?;
        }
        write!(f, "  [{}]", self.stats)
    }
}

/// Errors returned by algorithm runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgoError {
    /// `k` must be at least 1.
    ZeroK,
    /// The aggregation function rejects the database's number of lists.
    ArityMismatch {
        /// Lists in the database.
        lists: usize,
        /// Name of the aggregation.
        aggregation: String,
    },
    /// The middleware refused an access the algorithm needs; the policy is
    /// incompatible with the algorithm (e.g. running TA under a
    /// no-random-access policy).
    Access(AccessError),
    /// The algorithm's precondition on the aggregation function is violated
    /// (e.g. [`MaxTopK`](crate::algorithms::MaxTopK) requires `t = max`).
    UnsupportedAggregation {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Why the aggregation is unsupported.
        reason: String,
    },
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::ZeroK => write!(f, "k must be at least 1"),
            AlgoError::ArityMismatch { lists, aggregation } => {
                write!(f, "aggregation '{aggregation}' rejects {lists} lists")
            }
            AlgoError::Access(e) => write!(f, "middleware access failed: {e}"),
            AlgoError::UnsupportedAggregation { algorithm, reason } => {
                write!(f, "{algorithm}: unsupported aggregation: {reason}")
            }
        }
    }
}

impl std::error::Error for AlgoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgoError::Access(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AccessError> for AlgoError {
    fn from(e: AccessError) -> Self {
        AlgoError::Access(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scored_object_display() {
        let with = ScoredObject {
            object: ObjectId(1),
            grade: Some(Grade::new(0.5)),
        };
        assert!(with.to_string().contains("0.5"));
        let without = ScoredObject {
            object: ObjectId(1),
            grade: None,
        };
        assert!(without.to_string().contains("unknown"));
    }

    #[test]
    fn output_accessors() {
        let out = TopKOutput {
            items: vec![
                ScoredObject {
                    object: ObjectId(3),
                    grade: Some(Grade::new(0.9)),
                },
                ScoredObject {
                    object: ObjectId(1),
                    grade: None,
                },
            ],
            stats: AccessStats::new(2),
            metrics: RunMetrics::new(),
        };
        assert_eq!(out.objects(), vec![ObjectId(3), ObjectId(1)]);
        assert_eq!(out.grades(), vec![Some(Grade::new(0.9)), None]);
        assert!(out.to_string().contains("top-2"));
    }

    #[test]
    fn errors_display_and_convert() {
        let e: AlgoError = AccessError::BudgetExhausted.into();
        assert!(e.to_string().contains("budget"));
        assert!(AlgoError::ZeroK.to_string().contains("k must be"));
        let a = AlgoError::ArityMismatch {
            lists: 2,
            aggregation: "min-plus".into(),
        };
        assert!(a.to_string().contains("min-plus"));
    }

    #[test]
    fn metrics_default_guarantee_is_exact() {
        assert_eq!(RunMetrics::new().approximation_guarantee, 1.0);
        assert_eq!(RunMetrics::new().halt, HaltReason::Converged);
        assert!(!RunMetrics::new().halt.is_interrupted());
        assert!(HaltReason::Deadline.is_interrupted());
        assert!(HaltReason::BudgetExhausted.is_interrupted());
        // Losing a source mid-run is an interruption: the serving layer
        // must surface the answer as degraded, never as exact.
        assert!(HaltReason::SourceLost.is_interrupted());
        // θ-halting is a completed run, not a degraded one.
        assert!(!HaltReason::ThetaSatisfied.is_interrupted());
    }

    #[test]
    fn halt_reason_codes_round_trip() {
        let all = [
            HaltReason::Converged,
            HaltReason::ThetaSatisfied,
            HaltReason::Deadline,
            HaltReason::CostWatermark,
            HaltReason::RoundCap,
            HaltReason::BudgetExhausted,
            HaltReason::SourceLost,
        ];
        for r in all {
            assert_eq!(HaltReason::from_code(r.code()), Some(r));
            assert!(!r.label().is_empty());
            assert!(r
                .label()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        assert_eq!(HaltReason::from_code(99), None);
        // Labels are distinct.
        let labels: std::collections::HashSet<_> = all.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
