//! Random encoders and graphs the executor tests share: homogeneous and
//! heterogeneous graphs of any size, with special feature values.

// Each test file uses its own subset.
#![allow(dead_code)]

use fexiot_gnn::{Encoder, Gcn, Gin, Magnn};
use fexiot_graph::{
    Command, Device, DeviceKind, InteractionGraph, Location, Platform, Rule, RuleNode, Trigger,
};
use fexiot_tensor::Rng;

/// Equal bit for bit, except that any NaN equals any NaN.
pub fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| (p.is_nan() && q.is_nan()) || p.to_bits() == q.to_bits())
}

fn node(id: usize, platform: Platform, features: Vec<f64>) -> RuleNode {
    RuleNode {
        rule: Rule {
            id: id as u32,
            platform,
            trigger: Trigger::Manual,
            actions: vec![Command {
                device: Device::new(DeviceKind::Light, Location::Kitchen),
                activate: true,
            }],
            text: format!("rule {id}"),
        },
        features,
    }
}

/// A feature value: with probability `special`, one of NaN, ±∞, −0.0, a
/// subnormal or zero (only the last three if `finite`); otherwise a
/// normal draw.
pub fn feature(rng: &mut Rng, special: f64, finite: bool) -> f64 {
    if !rng.bool(special) {
        return rng.normal(0.0, 1.5);
    }
    match rng.usize(6) {
        0 if !finite => f64::NAN,
        1 if !finite => f64::INFINITY,
        2 if !finite => f64::NEG_INFINITY,
        0..=3 => -0.0,
        4 => f64::MIN_POSITIVE / 8.0,
        _ => 0.0,
    }
}

/// A graph of `n` nodes whose node `i` has platform `platform_of(i)` and
/// `dim_of(platform)` features, with random directed edges: none at all,
/// or any number with self-loops, repeats and both directions.
pub fn graph(
    rng: &mut Rng,
    n: usize,
    platform_of: impl Fn(&mut Rng, usize) -> Platform,
    dim_of: impl Fn(Platform) -> usize,
) -> InteractionGraph {
    let special = [0.0, 0.0, 0.02, 0.3][rng.usize(4)];
    graph_with(rng, n, platform_of, dim_of, |rng| {
        feature(rng, special, false)
    })
}

/// [`graph`] with every feature drawn by `feature`.
pub fn graph_with(
    rng: &mut Rng,
    n: usize,
    platform_of: impl Fn(&mut Rng, usize) -> Platform,
    dim_of: impl Fn(Platform) -> usize,
    mut feature: impl FnMut(&mut Rng) -> f64,
) -> InteractionGraph {
    let nodes = (0..n)
        .map(|i| {
            let p = platform_of(rng, i);
            let features = (0..dim_of(p)).map(|_| feature(rng)).collect();
            node(i, p, features)
        })
        .collect();
    let edge_count = if rng.bool(0.2) {
        0
    } else {
        rng.usize(3 * n + 1)
    };
    let edges = (0..edge_count)
        .map(|_| (rng.usize(n), rng.usize(n)))
        .collect();
    InteractionGraph::new(nodes, edges)
}

/// A homogeneous graph of `n` nodes with `d` features each.
pub fn homogeneous(rng: &mut Rng, n: usize, d: usize) -> InteractionGraph {
    graph(rng, n, |_, _| Platform::Ifttt, |_| d)
}

/// A MAGNN over 1–5 distinct platforms, each with its own feature dim.
pub fn magnn(rng: &mut Rng) -> Magnn {
    let mut platforms = Platform::ALL.to_vec();
    rng.shuffle(&mut platforms);
    platforms.truncate(rng.range(1, 6));
    let type_dims = platforms.iter().map(|&p| (p, rng.range(1, 9))).collect();
    Magnn::new(
        type_dims,
        rng.range(1, 9),
        rng.range(1, 6),
        rng.range(1, 6),
        rng,
    )
}

/// The platform of node `i` of a graph for `model`: node 0 has a
/// registered platform; any other node may have an unregistered one,
/// which MAGNN leaves out of its projection.
pub fn hetero_platform(rng: &mut Rng, model: &Magnn, i: usize) -> Platform {
    if i == 0 || rng.bool(0.9) {
        model.type_dims[rng.usize(model.type_dims.len())].0
    } else {
        Platform::ALL[rng.usize(Platform::ALL.len())]
    }
}

/// The feature dim `model` registers for `p`, or 3 for a platform it
/// does not register.
pub fn hetero_dim(model: &Magnn, p: Platform) -> usize {
    (model.type_dims.iter())
        .find(|&&(q, _)| q == p)
        .map_or(3, |&(_, d)| d)
}

/// A graph of `n` nodes for `model`.
pub fn hetero(rng: &mut Rng, model: &Magnn, n: usize) -> InteractionGraph {
    graph(
        rng,
        n,
        |rng, i| hetero_platform(rng, model, i),
        |p| hetero_dim(model, p),
    )
}

/// A GCN and a GIN over `d` input features, with the same random widths.
pub fn encoders(rng: &mut Rng, d: usize) -> [Encoder; 2] {
    let hidden: Vec<usize> = (0..rng.range(1, 4)).map(|_| rng.range(1, 12)).collect();
    let out = rng.range(1, 8);
    [
        Encoder::Gcn(Gcn::new(d, &hidden, out, rng)),
        Encoder::Gin(Gin::new(d, &hidden, out, rng)),
    ]
}
