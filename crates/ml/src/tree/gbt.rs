//! Gradient-boosted trees in the XGBoost formulation: second-order Taylor
//! objective with L2 leaf regularisation (`lambda`), minimum split gain
//! (`gamma`), shrinkage (`eta`), and row subsampling.
//!
//! For squared loss the per-sample gradient is `g_i = pred_i - y_i` and the
//! hessian `h_i = 1`; leaves take the value `-G/(H + lambda)` and splits are
//! scored by
//!
//! ```text
//! gain = 1/2 * ( GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ) - gamma
//! ```
//!
//! This is the crate's stand-in for the paper's XGBoost — the model its
//! selection procedure picks most often (Tables IV and V).
//!
//! # Storage and evaluation
//!
//! The thread-count sweep evaluates the ensemble once per candidate `nt` on
//! every cache miss, so the fitted model is laid out for that walk. All
//! trees share one contiguous arena of 16-byte nodes
//! `{value: f64, feature: u32, right: u32}`:
//!
//! * a **split** holds its threshold in `value`; its children are adjacent,
//!   the right one at `right` and the left one at `right - 1`, both at a
//!   higher index than the split itself;
//! * a **leaf** holds its (eta-scaled) weight in `value`, points at itself
//!   (`right` is its own index) and names as its feature the slot one past
//!   the row, where the walker keeps a `NaN`.
//!
//! One step of a walk is `i = right - (x[feature] <= value)`, the very
//! comparison on the very `f64` threshold the builder chose: `x ==
//! threshold` goes left, a `NaN` goes right at every split, `±inf` follow
//! the compare — the leaf reached is the one a test-per-node walk reaches.
//! On a leaf the comparison reads the `NaN` slot, is false whatever the
//! weight, and the walk stays put. So no branch depends on the data, and
//! every tree is walked the same `depth` steps (the height of the tallest
//! tree; shorter paths idle on their leaf).
//! [`GradientBoosting::predict_rows`] advances the chains of several trees
//! and rows in lock-step so their node loads overlap, where a branch per
//! level would serialise them behind its misprediction. Each row's leaf
//! weights are added in tree order, so predictions do not depend on how
//! many rows or trees are in flight.
//!
//! The arena is private and checked where it enters the program:
//! [`Deserialize`] rejects child indices that are out of range or point
//! backwards, feature indices outside the row, and a `depth` other than the
//! tallest tree's height, so a damaged model file is an error at load and
//! never a wild index during prediction.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{DeError, Deserialize, Serialize, Value};
use std::ops::Range;

/// Gradient-boosting hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Learning rate (shrinkage).
    pub eta: f64,
    /// L2 regularisation on leaf weights.
    pub lambda: f64,
    /// Minimum gain to accept a split.
    pub gamma: f64,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// Minimum hessian weight (== sample count for squared loss) per child.
    pub min_child_weight: f64,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_rounds: 200,
            max_depth: 6,
            eta: 0.1,
            lambda: 1.0,
            gamma: 0.0,
            subsample: 1.0,
            min_child_weight: 1.0,
            seed: 0,
        }
    }
}

/// One arena slot (16 bytes); see the module docs for the layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Node {
    /// Split: the threshold. Leaf: the weight, already scaled by eta.
    value: f64,
    /// Split: the feature compared. Leaf: `n_features`, the `NaN` slot.
    feature: u32,
    /// Split: arena index of the right child, the left one at `right - 1`.
    /// Leaf: the node's own index.
    right: u32,
}

/// What a slot holds between being reserved and its node being grown.
const UNSET: Node = Node {
    value: 0.0,
    feature: 0,
    right: 0,
};

fn arena_index(i: usize) -> u32 {
    u32::try_from(i).expect("gradient-boosting arena outgrew its u32 indices")
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GradientBoosting {
    /// Constant base prediction (target mean).
    pub base: f64,
    /// Parameters used at fit time.
    pub params: GbtParams,
    /// Width of the rows the trees index into.
    n_features: usize,
    /// Height of the tallest tree: the steps every walk takes.
    depth: usize,
    /// Arena index of each boosting round's root, in round order.
    roots: Vec<u32>,
    /// Every tree's nodes (leaf weights already scaled by eta).
    nodes: Vec<Node>,
}

struct GBuilder<'a> {
    x: &'a [Vec<f64>],
    g: &'a [f64],
    params: GbtParams,
    nodes: &'a mut Vec<Node>,
}

impl GBuilder<'_> {
    /// Grow the node over `idx` into the arena slot `slot` (its subtree
    /// appended behind); returns the subtree's height.
    fn grow(&mut self, idx: Vec<usize>, depth: usize, slot: usize) -> usize {
        let p = self.x[0].len();
        let gsum: f64 = idx.iter().map(|&i| self.g[i]).sum();
        let hsum = idx.len() as f64; // h_i = 1 under squared loss
        let lambda = self.params.lambda;
        let parent_score = gsum * gsum / (hsum + lambda);
        let mut best: Option<(usize, f64, f64)> = None;
        if depth < self.params.max_depth && idx.len() >= 2 {
            let mut order = idx.clone();
            for f in 0..p {
                order.sort_by(|&a, &b| self.x[a][f].total_cmp(&self.x[b][f]));
                let mut gl = 0.0;
                let mut hl = 0.0;
                for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
                    gl += self.g[i];
                    hl += 1.0;
                    let xv = self.x[i][f];
                    let xnext = self.x[order[pos + 1]][f];
                    if xnext <= xv {
                        continue;
                    }
                    let gr = gsum - gl;
                    let hr = hsum - hl;
                    if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                        continue;
                    }
                    let gain = 0.5
                        * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                        - self.params.gamma;
                    if gain > best.map_or(1e-12, |(_, _, g)| g) {
                        best = Some((f, 0.5 * (xv + xnext), gain));
                    }
                }
            }
        }
        if let Some((f, thr, _)) = best {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| self.x[i][f] <= thr);
            let left = self.nodes.len();
            self.nodes.extend([UNSET; 2]);
            let hl = self.grow(li, depth + 1, left);
            let hr = self.grow(ri, depth + 1, left + 1);
            self.nodes[slot] = Node {
                value: thr,
                feature: arena_index(f),
                right: arena_index(left + 1),
            };
            1 + hl.max(hr)
        } else {
            self.nodes[slot] = Node {
                value: -gsum / (hsum + lambda) * self.params.eta,
                feature: arena_index(p),
                right: arena_index(slot),
            };
            0
        }
    }
}

/// Trees walked side by side.
const TREES: usize = 8;
/// Rows walked side by side: `TREES * ROWS` independent chains in flight.
const ROWS: usize = 2;
/// Rows are walked from a copy on the stack, this many `f64` slots of them
/// at a time; `ROWS` rows too wide for it, from a copy on the heap.
const STACK_SLOTS: usize = 256;

impl GradientBoosting {
    /// Fit the booster on a row-major design matrix.
    pub fn fit(x: &[Vec<f64>], y: &[f64], params: GbtParams) -> GradientBoosting {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty());
        let n = x.len();
        let p = x[0].len();
        assert!(x.iter().all(|r| r.len() == p), "rows must share one width");
        let flat: Vec<f64> = x.iter().flatten().copied().collect();
        let base = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut model = GradientBoosting {
            base,
            params,
            n_features: p,
            depth: 0,
            roots: Vec::with_capacity(params.n_rounds),
            nodes: Vec::new(),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
        let mut all: Vec<usize> = (0..n).collect();
        for round in 0..params.n_rounds {
            // Gradient of squared loss.
            let g: Vec<f64> = pred.iter().zip(y).map(|(p, t)| p - t).collect();
            let idx: Vec<usize> = if params.subsample < 1.0 {
                all.shuffle(&mut rng);
                let take = ((n as f64 * params.subsample) as usize).max(2).min(n);
                all[..take].to_vec()
            } else {
                all.clone()
            };
            let root = model.nodes.len();
            model.nodes.push(UNSET);
            let height = GBuilder {
                x,
                g: &g,
                params,
                nodes: &mut model.nodes,
            }
            .grow(idx, 0, root);
            model.roots.push(arena_index(root));
            model.depth = model.depth.max(height);
            model.add_leaf_weights(round..round + 1, &flat, &mut pred);
        }
        model.nodes.shrink_to_fit();
        model
    }

    /// Width of the rows this model predicts from.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Predict one row.
    pub fn predict_row(&self, x: &[f64]) -> f64 {
        let mut out = [0.0];
        self.predict_rows(x, &mut out);
        out[0]
    }

    /// Predict `out.len()` rows stored back to back in `rows`, each
    /// [`n_features`](Self::n_features) wide.
    pub fn predict_rows(&self, rows: &[f64], out: &mut [f64]) {
        // What `Iterator::sum` starts an `f64` sum from, so that adding the
        // weights one by one gives the bits a `sum()` over the trees gives.
        out.fill(std::iter::empty::<f64>().sum());
        self.add_leaf_weights(0..self.roots.len(), rows, out);
        for o in out {
            *o += self.base;
        }
    }

    /// For every row, add the weight of the leaf it reaches in each tree of
    /// `trees` to the row's slot of `acc`, in tree order.
    fn add_leaf_weights(&self, trees: Range<usize>, rows: &[f64], acc: &mut [f64]) {
        let p = self.n_features;
        assert_eq!(rows.len(), acc.len() * p, "rows must be {p} features wide");
        let nodes = &self.nodes[..];
        let roots = &self.roots[trees];
        if roots.is_empty() {
            return;
        }
        // A batch of rows is copied to where each has the `NaN` slot behind
        // it, then walked a group of trees at a time, so that a group's
        // nodes are fetched once for the whole batch.
        let width = p + 1;
        let mut stack = [f64::NAN; STACK_SLOTS];
        let mut heap = Vec::new();
        let padded = if ROWS * width <= STACK_SLOTS {
            &mut stack[..]
        } else {
            heap.resize(ROWS * width, f64::NAN);
            &mut heap[..]
        };
        let batch = padded.len() / width;
        for (b, sums) in acc.chunks_mut(batch).enumerate() {
            let padded = &mut padded[..sums.len() * width];
            let rows = &rows[b * batch * p..][..sums.len() * p];
            for r in 0..sums.len() {
                padded[r * width..][..p].copy_from_slice(&rows[r * p..][..p]);
            }
            for group in roots.chunks(TREES) {
                // A short last group repeats its first tree in the spare
                // lanes, which are walked and not summed.
                let mut lane = [group[0]; TREES];
                lane[..group.len()].copy_from_slice(group);
                for (xs, sums) in padded.chunks(ROWS * width).zip(sums.chunks_mut(ROWS)) {
                    // `at[r][t]`: where row `r` stands in tree `t`.
                    let mut at = [lane; ROWS];
                    for _ in 0..self.depth {
                        for (x, lane) in xs.chunks_exact(width).zip(&mut at) {
                            for i in lane {
                                let n = nodes[*i as usize];
                                *i = n.right - u32::from(x[n.feature as usize] <= n.value);
                            }
                        }
                    }
                    for (sum, lane) in sums.iter_mut().zip(&at) {
                        for &i in &lane[..group.len()] {
                            *sum += nodes[i as usize].value;
                        }
                    }
                }
            }
        }
    }

    /// Check the arena against what the walker indexes without asking.
    fn validate(&self) -> Result<(), String> {
        let (len, p) = (self.nodes.len(), self.n_features);
        // Children sit at higher indices, so one backward pass has every
        // child's height before its parent asks for it.
        let mut height = vec![0usize; len];
        for (i, n) in self.nodes.iter().enumerate().rev() {
            let (right, feature) = (n.right as usize, n.feature as usize);
            if right == i {
                if feature != p {
                    return Err(format!(
                        "leaf {i}: feature {feature}, not the {p} of a leaf"
                    ));
                }
                continue;
            }
            if feature >= p {
                return Err(format!("node {i}: feature {feature} of {p}"));
            }
            if right < i + 2 || right >= len {
                return Err(format!("node {i}: right child {right} of {len} nodes"));
            }
            height[i] = 1 + height[right - 1].max(height[right]);
        }
        let mut tallest = 0;
        for &root in &self.roots {
            let h = height
                .get(root as usize)
                .ok_or_else(|| format!("root {root} of {len} nodes"))?;
            tallest = tallest.max(*h);
        }
        if self.depth != tallest {
            return Err(format!(
                "depth {} but the tallest tree has height {tallest}",
                self.depth
            ));
        }
        Ok(())
    }
}

impl Deserialize for GradientBoosting {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "GradientBoosting";
        fn get<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, DeError> {
            T::from_value(serde::field(obj, name, TY)?)
        }
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", TY))?;
        let model = GradientBoosting {
            base: get(obj, "base")?,
            params: get(obj, "params")?,
            n_features: get(obj, "n_features")?,
            depth: get(obj, "depth")?,
            roots: get(obj, "roots")?,
            nodes: get(obj, "nodes")?,
        };
        model
            .validate()
            .map_err(|why| DeError::msg(format!("invalid {TY} arena: {why}")))?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};
    use proptest::prelude::*;

    impl GradientBoosting {
        /// The oracle: one tree at a time, one row at a time, a leaf test
        /// and a branch on `x[feature] <= threshold` per node, summed with
        /// `Iterator::sum` — the walk this model kind shipped with before
        /// the arena, which `predict_rows` must equal bit for bit.
        fn oracle(&self, x: &[f64]) -> f64 {
            let leaf_weight = |&root: &u32| {
                let mut i = root as usize;
                loop {
                    let n = self.nodes[i];
                    if n.right as usize == i {
                        return n.value;
                    }
                    i = if x[n.feature as usize] <= n.value {
                        n.right as usize - 1
                    } else {
                        n.right as usize
                    };
                }
            };
            self.base + self.roots.iter().map(leaf_weight).sum::<f64>()
        }

        fn is_leaf(&self, i: usize) -> bool {
            self.nodes[i].right as usize == i
        }
    }

    fn friedman_ish(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i as f64 * 0.713).fract();
                let b = (i as f64 * 0.297).fract();
                let c = (i as f64 * 0.531).fract();
                vec![a, b, c]
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| {
                10.0 * (std::f64::consts::PI * r[0] * r[1]).sin() + 20.0 * (r[2] - 0.5).powi(2)
            })
            .collect();
        (x, y)
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let (x, y) = friedman_ish(400);
        let m = GradientBoosting::fit(
            &x,
            &y,
            GbtParams {
                n_rounds: 150,
                ..Default::default()
            },
        );
        let p: Vec<f64> = x.iter().map(|r| m.predict_row(r)).collect();
        assert!(r2(&p, &y) > 0.97, "r2 {}", r2(&p, &y));
    }

    #[test]
    fn training_error_decreases_with_rounds() {
        let (x, y) = friedman_ish(200);
        let errs: Vec<f64> = [5, 25, 100]
            .iter()
            .map(|&r| {
                let m = GradientBoosting::fit(
                    &x,
                    &y,
                    GbtParams {
                        n_rounds: r,
                        ..Default::default()
                    },
                );
                let p: Vec<f64> = x.iter().map(|row| m.predict_row(row)).collect();
                rmse(&p, &y)
            })
            .collect();
        assert!(errs[1] < errs[0]);
        assert!(errs[2] < errs[1]);
    }

    #[test]
    fn lambda_shrinks_leaf_weights() {
        let (x, y) = friedman_ish(100);
        let small = GradientBoosting::fit(
            &x,
            &y,
            GbtParams {
                n_rounds: 1,
                eta: 1.0,
                lambda: 0.1,
                ..Default::default()
            },
        );
        let big = GradientBoosting::fit(
            &x,
            &y,
            GbtParams {
                n_rounds: 1,
                eta: 1.0,
                lambda: 100.0,
                ..Default::default()
            },
        );
        let max_leaf = |m: &GradientBoosting| {
            (0..m.nodes.len())
                .filter(|&i| m.is_leaf(i))
                .map(|i| m.nodes[i].value.abs())
                .fold(0.0, f64::max)
        };
        assert!(max_leaf(&big) < max_leaf(&small));
    }

    #[test]
    fn gamma_prunes_splits() {
        let (x, y) = friedman_ish(150);
        let free = GradientBoosting::fit(
            &x,
            &y,
            GbtParams {
                n_rounds: 5,
                gamma: 0.0,
                ..Default::default()
            },
        );
        let pruned = GradientBoosting::fit(
            &x,
            &y,
            GbtParams {
                n_rounds: 5,
                gamma: 1e6,
                ..Default::default()
            },
        );
        let count_splits =
            |m: &GradientBoosting| (0..m.nodes.len()).filter(|&i| !m.is_leaf(i)).count();
        assert!(count_splits(&pruned) < count_splits(&free));
        // Infinite gamma -> stumps of single leaves: prediction = base.
        assert_eq!(count_splits(&pruned), 0);
    }

    #[test]
    fn base_prediction_is_target_mean() {
        let (x, y) = friedman_ish(50);
        let m = GradientBoosting::fit(
            &x,
            &y,
            GbtParams {
                n_rounds: 1,
                ..Default::default()
            },
        );
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((m.base - mean).abs() < 1e-12);
    }

    #[test]
    fn subsample_is_deterministic_per_seed() {
        let (x, y) = friedman_ish(120);
        let p = GbtParams {
            n_rounds: 10,
            subsample: 0.7,
            seed: 3,
            ..Default::default()
        };
        let a = GradientBoosting::fit(&x, &y, p);
        let b = GradientBoosting::fit(&x, &y, p);
        assert_eq!(a, b);
    }

    #[test]
    fn serde_roundtrip() {
        let (x, y) = friedman_ish(40);
        let m = GradientBoosting::fit(
            &x,
            &y,
            GbtParams {
                n_rounds: 3,
                ..Default::default()
            },
        );
        let s = serde_json::to_string(&m).unwrap();
        let back: GradientBoosting = serde_json::from_str(&s).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn siblings_are_adjacent_and_children_point_forward() {
        let (x, y) = friedman_ish(150);
        let m = GradientBoosting::fit(
            &x,
            &y,
            GbtParams {
                n_rounds: 12,
                ..Default::default()
            },
        );
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(m.roots.len(), 12);
        assert!(m.depth >= 1 && m.depth <= m.params.max_depth);
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    /// Two levels on two features; leaf weights name the path taken.
    ///
    /// ```text
    /// 0: x0 <= 1.0 ? 1 : 2
    /// 1: x1 <= 0.0 ? 3 (LL) : 4 (LR)
    /// 2: x1 <= 0.0 ? 5 (RL) : 6 (RR)
    /// ```
    fn two_level_model() -> GradientBoosting {
        let split = |value, feature, left: u32| Node {
            value,
            feature,
            right: left + 1,
        };
        let leaf = |value, at| Node {
            value,
            feature: 2,
            right: at,
        };
        let m = GradientBoosting {
            base: 0.5,
            params: GbtParams::default(),
            n_features: 2,
            depth: 2,
            roots: vec![0],
            nodes: vec![
                split(1.0, 0, 1),
                split(0.0, 1, 3),
                split(0.0, 1, 5),
                leaf(1.0, 3),
                leaf(2.0, 4),
                leaf(3.0, 5),
                leaf(4.0, 6),
            ],
        };
        assert_eq!(m.validate(), Ok(()));
        m
    }

    #[test]
    fn ties_nan_and_infinities_follow_the_less_or_equal_compare() {
        const LL: f64 = 1.0;
        const LR: f64 = 2.0;
        const RL: f64 = 3.0;
        const RR: f64 = 4.0;
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let above_one = f64::from_bits(1.0f64.to_bits() + 1);
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let table: [([f64; 2], f64); 14] = [
            ([1.0, 0.0], LL),        // x == threshold goes left, twice
            ([above_one, 0.0], RL),  // one ulp above goes right
            ([below_one, -0.0], LL), // -0.0 <= 0.0
            ([1.0, f64::MIN_POSITIVE], LR),
            ([nan, 0.0], RL), // NaN goes right at the root...
            ([1.0, nan], LR), // ...and at the second level,
            ([nan, nan], RR), // every time
            ([-nan, -nan], RR),
            ([inf, -inf], RL),
            ([-inf, inf], LR),
            ([-inf, -inf], LL),
            ([inf, inf], RR),
            ([f64::MAX, f64::MIN], RL),
            ([f64::MIN, f64::MAX], LR),
        ];
        let m = two_level_model();
        let rows: Vec<f64> = table.iter().flat_map(|(x, _)| *x).collect();
        let mut out = vec![0.0; table.len()];
        m.predict_rows(&rows, &mut out);
        for ((x, leaf), got) in table.iter().zip(&out) {
            assert_eq!(*got, m.base + leaf, "row {x:?}");
            assert_eq!(got.to_bits(), m.oracle(x).to_bits(), "row {x:?}");
            assert_eq!(got.to_bits(), m.predict_row(x).to_bits(), "row {x:?}");
        }
    }

    #[test]
    fn damaged_arenas_are_rejected_with_the_reason() {
        let good = two_level_model();
        let damaged = |edit: &dyn Fn(&mut GradientBoosting)| {
            let mut m = good.clone();
            edit(&mut m);
            let text = serde_json::to_string(&m).unwrap();
            serde_json::from_str::<GradientBoosting>(&text)
                .expect_err("damaged arena must not load")
                .to_string()
        };
        // A child past the end, children behind their parent, a left child
        // that is the parent, a split on the leaves' slot, a leaf on a real
        // feature, a feature outside the row, a root outside the arena, a
        // depth the trees do not have, rows of another width.
        assert!(damaged(&|m| m.nodes[2].right = 70).contains("node 2: right child 70"));
        assert!(damaged(&|m| m.nodes[2].right = 1).contains("node 2: right child 1"));
        assert!(damaged(&|m| m.nodes[2].right = 3).contains("node 2: right child 3"));
        assert!(damaged(&|m| m.nodes[1].feature = 2).contains("node 1: feature 2"));
        assert!(damaged(&|m| m.nodes[4].feature = 0).contains("leaf 4: feature 0"));
        assert!(damaged(&|m| m.nodes[4].feature = 9).contains("leaf 4: feature 9"));
        assert!(damaged(&|m| m.roots.push(7)).contains("root 7"));
        assert!(damaged(&|m| m.depth = 1).contains("depth 1"));
        assert!(damaged(&|m| m.depth = usize::MAX).contains("tallest tree has height 2"));
        assert!(damaged(&|m| m.n_features = 3).contains("leaf 6: feature 2"));
        // The layout this model kind had before the arena.
        let old = r#"{"base":0.5,"trees":[{"nodes":[{"Leaf":{"weight":1.0}}]}],"params":PARAMS}"#
            .replace(
                "PARAMS",
                &serde_json::to_string(&GbtParams::default()).unwrap(),
            );
        let err = serde_json::from_str::<GradientBoosting>(&old).unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    /// A seeded corpus of `n` rows by `p` columns on a coarse grid (so
    /// columns tie), its tail duplicating its head, with a target that is
    /// constant when `flat`.
    fn corpus(seed: u64, n: usize, p: usize, flat: bool) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 41) as f64 / 8.0 - 2.5
        };
        let mut x: Vec<Vec<f64>> = (0..n).map(|_| (0..p).map(|_| next()).collect()).collect();
        for i in 0..n / 4 {
            x[n - 1 - i] = x[i].clone();
        }
        let y = x
            .iter()
            .map(|r| {
                if flat {
                    3.25
                } else {
                    r[0] * r[p - 1] + (r[p / 2] * 2.0).sin()
                }
            })
            .collect();
        (x, y)
    }

    #[test]
    fn rows_too_wide_for_the_stack_copy_and_rows_of_no_width_agree_with_the_oracle() {
        for p in [0, STACK_SLOTS / ROWS - 1, STACK_SLOTS / ROWS, STACK_SLOTS] {
            let (mut x, y) = corpus(7, 21, p.max(1), false);
            x.iter_mut().for_each(|r| r.truncate(p));
            let params = GbtParams {
                n_rounds: 9,
                max_depth: 2,
                ..Default::default()
            };
            let m = GradientBoosting::fit(&x, &y, params);
            assert_eq!(m.validate(), Ok(()));
            let rows: Vec<f64> = x.iter().flatten().copied().collect();
            let mut out = vec![f64::NAN; x.len()];
            m.predict_rows(&rows, &mut out);
            for (row, got) in x.iter().zip(&out) {
                assert_eq!(got.to_bits(), m.oracle(row).to_bits(), "width {p}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any number of rows in flight, any tree count and depth: the
        /// lock-step walk reaches the oracle's leaves and adds them in the
        /// oracle's order.
        #[test]
        #[cfg_attr(miri, ignore = "proptest volume; the table-driven tests walk the same loop")]
        fn predict_rows_equals_the_oracle_bit_for_bit(
            seed in any::<u64>(),
            shape in (8usize..60, 1usize..6),
            rounds in 1usize..=60,
            max_depth in 1usize..=8,
            subsample in 0.5f64..=1.0,
            flat in 0u8..4,
        ) {
            let (n, p) = shape;
            let (x, y) = corpus(seed, n, p, flat == 0);
            let params = GbtParams {
                n_rounds: rounds,
                max_depth,
                subsample,
                seed,
                ..Default::default()
            };
            let m = GradientBoosting::fit(&x, &y, params);
            prop_assert_eq!(m.validate(), Ok(()));
            prop_assert_eq!(m.roots.len(), rounds);
            // Probe rows: the corpus itself, then points off its grid.
            let (probes, _) = corpus(seed ^ 0xA5A5, 130, p, false);
            let pool: Vec<&Vec<f64>> = x.iter().chain(&probes).collect();
            for count in [1usize, 2, 7, 130] {
                let rows: Vec<f64> = pool[..count].iter().flat_map(|r| r.iter().copied()).collect();
                let mut out = vec![f64::NAN; count];
                m.predict_rows(&rows, &mut out);
                for (row, got) in pool[..count].iter().zip(&out) {
                    prop_assert_eq!(got.to_bits(), m.oracle(row).to_bits());
                    prop_assert_eq!(got.to_bits(), m.predict_row(row).to_bits());
                }
            }
        }
    }
}
