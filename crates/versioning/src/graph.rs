//! Recovered version graphs and their evaluation against ground truth.

use mlake_nn::TransformKind;
use serde::{Deserialize, Serialize};

/// One recovered derivation edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveredEdge {
    /// Predicted (primary) parent index.
    pub parent: usize,
    /// Child index.
    pub child: usize,
    /// Predicted derivation operator.
    pub kind: TransformKind,
    /// Predicted second parent (stitch/merge).
    pub second_parent: Option<usize>,
    /// Recovery confidence score (smaller distance = higher confidence; this
    /// is the raw distance, kept for diagnostics).
    pub distance: f32,
}

/// A recovered version graph over `num_models` models (the default: none).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveredGraph {
    /// Number of models considered.
    pub num_models: usize,
    /// Recovered edges (at most one primary edge per child).
    pub edges: Vec<RecoveredEdge>,
    /// Indices the recovery designated as roots (base models).
    pub roots: Vec<usize>,
}

impl RecoveredGraph {
    /// Recovered primary parent of `i`, if any.
    pub fn parent_of(&self, i: usize) -> Option<usize> {
        self.edges.iter().find(|e| e.child == i).map(|e| e.parent)
    }

    /// Children of `i` through primary edges.
    pub fn children_of(&self, i: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|e| e.parent == i)
            .map(|e| e.child)
            .collect()
    }

    /// Depth of `i` (0 for roots / orphans). Safe on malformed graphs — caps
    /// at `num_models` hops.
    pub fn depth_of(&self, i: usize) -> usize {
        let mut depth = 0;
        let mut cur = i;
        while let Some(p) = self.parent_of(cur) {
            depth += 1;
            cur = p;
            if depth > self.num_models {
                break;
            }
        }
        depth
    }
}

/// Ground-truth view needed for evaluation (decoupled from `mlake-datagen`
/// so this crate stays dependency-light; the bench harness adapts).
#[derive(Debug, Clone, PartialEq)]
pub struct TrueEdge {
    /// True parent.
    pub parent: usize,
    /// True child.
    pub child: usize,
    /// True operator.
    pub kind: TransformKind,
    /// True second parent, if any.
    pub second_parent: Option<usize>,
}

/// Evaluation of a recovered graph against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphEval {
    /// Fraction of recovered (undirected) pairs that are true pairs.
    pub edge_precision: f32,
    /// Fraction of true pairs recovered (as undirected pairs).
    pub edge_recall: f32,
    /// Harmonic mean of precision and recall.
    pub edge_f1: f32,
    /// Among correctly recovered pairs, fraction with correct direction.
    pub direction_accuracy: f32,
    /// Among correctly recovered directed edges, fraction with correct kind.
    pub kind_accuracy: f32,
    /// Number of recovered edges.
    pub recovered: usize,
    /// Number of true edges.
    pub truth: usize,
}

/// Scores `graph` against `truth` edges.
pub fn evaluate(graph: &RecoveredGraph, truth: &[TrueEdge]) -> GraphEval {
    let norm = |a: usize, b: usize| if a < b { (a, b) } else { (b, a) };
    let true_pairs: std::collections::HashSet<(usize, usize)> =
        truth.iter().map(|e| norm(e.parent, e.child)).collect();
    let rec_pairs: Vec<(usize, usize)> = graph
        .edges
        .iter()
        .map(|e| norm(e.parent, e.child))
        .collect();
    let hits = rec_pairs.iter().filter(|p| true_pairs.contains(p)).count();
    let precision = if rec_pairs.is_empty() {
        0.0
    } else {
        hits as f32 / rec_pairs.len() as f32
    };
    let recall = if true_pairs.is_empty() {
        0.0
    } else {
        hits as f32 / true_pairs.len() as f32
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };

    // Direction + kind among matched pairs.
    let mut dir_hits = 0usize;
    let mut dir_total = 0usize;
    let mut kind_hits = 0usize;
    let mut kind_total = 0usize;
    for re in &graph.edges {
        if let Some(te) = truth
            .iter()
            .find(|t| norm(t.parent, t.child) == norm(re.parent, re.child))
        {
            dir_total += 1;
            if te.parent == re.parent && te.child == re.child {
                dir_hits += 1;
                kind_total += 1;
                if te.kind == re.kind {
                    kind_hits += 1;
                }
            }
        }
    }
    GraphEval {
        edge_precision: precision,
        edge_recall: recall,
        edge_f1: f1,
        direction_accuracy: if dir_total == 0 {
            0.0
        } else {
            dir_hits as f32 / dir_total as f32
        },
        kind_accuracy: if kind_total == 0 {
            0.0
        } else {
            kind_hits as f32 / kind_total as f32
        },
        recovered: graph.edges.len(),
        truth: truth.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(parent: usize, child: usize, kind: TransformKind) -> RecoveredEdge {
        RecoveredEdge {
            parent,
            child,
            kind,
            second_parent: None,
            distance: 0.1,
        }
    }

    fn te(parent: usize, child: usize, kind: TransformKind) -> TrueEdge {
        TrueEdge {
            parent,
            child,
            kind,
            second_parent: None,
        }
    }

    #[test]
    fn perfect_recovery_scores_one() {
        let truth = vec![te(0, 1, TransformKind::FineTune), te(1, 2, TransformKind::Edit)];
        let graph = RecoveredGraph {
            num_models: 3,
            edges: vec![re(0, 1, TransformKind::FineTune), re(1, 2, TransformKind::Edit)],
            roots: vec![0],
        };
        let ev = evaluate(&graph, &truth);
        assert_eq!(ev.edge_precision, 1.0);
        assert_eq!(ev.edge_recall, 1.0);
        assert_eq!(ev.edge_f1, 1.0);
        assert_eq!(ev.direction_accuracy, 1.0);
        assert_eq!(ev.kind_accuracy, 1.0);
    }

    #[test]
    fn reversed_direction_counts_as_pair_not_direction() {
        let truth = vec![te(0, 1, TransformKind::FineTune)];
        let graph = RecoveredGraph {
            num_models: 2,
            edges: vec![re(1, 0, TransformKind::FineTune)],
            roots: vec![1],
        };
        let ev = evaluate(&graph, &truth);
        assert_eq!(ev.edge_recall, 1.0);
        assert_eq!(ev.direction_accuracy, 0.0);
        assert_eq!(ev.kind_accuracy, 0.0);
    }

    #[test]
    fn wrong_kind_counted() {
        let truth = vec![te(0, 1, TransformKind::Lora)];
        let graph = RecoveredGraph {
            num_models: 2,
            edges: vec![re(0, 1, TransformKind::Edit)],
            roots: vec![0],
        };
        let ev = evaluate(&graph, &truth);
        assert_eq!(ev.direction_accuracy, 1.0);
        assert_eq!(ev.kind_accuracy, 0.0);
    }

    #[test]
    fn empty_graphs() {
        let graph = RecoveredGraph {
            num_models: 2,
            edges: vec![],
            roots: vec![0, 1],
        };
        let ev = evaluate(&graph, &[]);
        assert_eq!(ev.edge_precision, 0.0);
        assert_eq!(ev.edge_recall, 0.0);
        assert_eq!(ev.edge_f1, 0.0);
    }

    #[test]
    fn graph_navigation() {
        let graph = RecoveredGraph {
            num_models: 3,
            edges: vec![re(0, 1, TransformKind::FineTune), re(1, 2, TransformKind::Edit)],
            roots: vec![0],
        };
        assert_eq!(graph.parent_of(2), Some(1));
        assert_eq!(graph.parent_of(0), None);
        assert_eq!(graph.children_of(0), vec![1]);
        assert_eq!(graph.depth_of(2), 2);
        assert_eq!(graph.depth_of(0), 0);
    }
}
