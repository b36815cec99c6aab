//! Answer checking against the true grades, precomputed once per run.
//!
//! Every aggregation's full ranking is computed from the database before
//! the timed window (and outside `setup_s`). Checks run after the window,
//! so they never sit inside a measured latency.

use fagin_core::oracle;
use fagin_middleware::{Database, Grade, ObjectId};
use fagin_serve::AggSpec;

struct Ranking {
    agg: AggSpec,
    /// Overall grade by object id.
    grade: Vec<Grade>,
    /// Object ids, best first (grade descending, id ascending).
    order: Vec<ObjectId>,
}

pub struct Oracle {
    rankings: Vec<Ranking>,
}

impl Oracle {
    pub fn new(db: &Database, aggs: &[AggSpec]) -> Self {
        let rankings = aggs
            .iter()
            .map(|&agg| {
                let mut graded = oracle::all_grades(db, agg.instance());
                graded.sort_by_key(|&(id, _)| id.0);
                let grade: Vec<Grade> = graded.iter().map(|&(_, g)| g).collect();
                let mut order: Vec<ObjectId> = graded.iter().map(|&(id, _)| id).collect();
                order.sort_by(|a, b| grade[b.index()].cmp(&grade[a.index()]).then(a.cmp(b)));
                Ranking { agg, grade, order }
            })
            .collect();
        Oracle { rankings }
    }

    fn ranking(&self, agg: AggSpec) -> &Ranking {
        self.rankings
            .iter()
            .find(|r| r.agg == agg)
            .expect("oracle covers every aggregation in the catalogue")
    }

    /// Whether `objects` answers a top-`k` query under `agg` with the
    /// guarantee `theta` the answer reports: at `theta == 1` its grade
    /// multiset must equal the true top-`k` multiset; above 1 it must be a
    /// valid θ-approximation (every selected `y` and unselected `z` satisfy
    /// `θ·t(y) ≥ t(z)`).
    pub fn check(&self, agg: AggSpec, k: usize, theta: f64, objects: &[ObjectId]) -> bool {
        let r = self.ranking(agg);
        let k = k.min(r.order.len());
        if objects.len() != k || objects.iter().any(|o| o.index() >= r.grade.len()) {
            return false;
        }
        let mut ids = objects.to_vec();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        let mut got: Vec<Grade> = objects.iter().map(|o| r.grade[o.index()]).collect();
        got.sort_unstable_by(|a, b| b.cmp(a));
        if theta == 1.0 {
            return r
                .order
                .iter()
                .take(k)
                .map(|o| r.grade[o.index()])
                .eq(got.iter().copied());
        }
        let min_selected = got.last().map_or(f64::INFINITY, |g| g.value());
        let max_unselected = r
            .order
            .iter()
            .find(|o| ids.binary_search(o).is_err())
            .map_or(0.0, |o| r.grade[o.index()].value());
        theta * min_selected >= max_unselected
    }
}
