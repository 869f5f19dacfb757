//! The reference model: every workload's metadata graph as plain data.
//!
//! The benchmark generates a [`Dag`] from the seed, builds the
//! framework's item definitions from it, and afterwards recomputes from
//! the same `Dag` and its own source counters what every observed value,
//! recompute set and included set must be. A maintained result must
//! equal this from-scratch recomputation.

use crate::rng::Rng;

/// Raw value of a source item: `counter * RAW_STRIDE + offset`, so every
/// source update changes every raw item of the source.
pub const RAW_STRIDE: u64 = 1 << 20;

pub fn raw_value(counter: u64, offset: u64) -> u64 {
    counter * RAW_STRIDE + offset
}

pub enum Def {
    /// Triggered by its source's `tick` event.
    Raw { source: usize, offset: u64 },
    /// Triggered by its dependencies: their sum plus `plus`.
    Sum { deps: Vec<usize>, plus: u64 },
}

pub struct Item {
    pub node: u32,
    pub name: String,
    pub def: Def,
}

/// Items in dependency order: every dependency precedes its dependents.
/// Source `s` is the `tick` event of node `source_nodes[s]`.
pub struct Dag {
    pub items: Vec<Item>,
    pub source_nodes: Vec<u32>,
}

impl Dag {
    pub fn deps(&self, i: usize) -> &[usize] {
        match &self.items[i].def {
            Def::Raw { .. } => &[],
            Def::Sum { deps, .. } => deps,
        }
    }

    /// Every item's value for the given source counters.
    pub fn values(&self, counters: &[u64]) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.items.len());
        for item in &self.items {
            let x = match &item.def {
                Def::Raw { source, offset } => raw_value(counters[*source], *offset),
                Def::Sum { deps, plus } => deps.iter().map(|&d| v[d]).sum::<u64>() + plus,
            };
            v.push(x);
        }
        v
    }

    /// The items a `tick` of `source` recomputes when `included` items are
    /// maintained: its raw items and everything included downstream.
    pub fn reach(&self, source: usize, included: &[bool]) -> Vec<bool> {
        let mut hit = vec![false; self.items.len()];
        for (i, item) in self.items.iter().enumerate() {
            hit[i] = included[i]
                && match &item.def {
                    Def::Raw { source: s, .. } => *s == source,
                    Def::Sum { deps, .. } => deps.iter().any(|&d| hit[d]),
                };
        }
        hit
    }

    /// The items a set of subscriptions includes: the subscribed items
    /// and all their transitive dependencies.
    pub fn closure(&self, subscribed: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut inc = vec![false; self.items.len()];
        let mut stack: Vec<usize> = subscribed.into_iter().collect();
        while let Some(i) = stack.pop() {
            if !std::mem::replace(&mut inc[i], true) {
                stack.extend_from_slice(self.deps(i));
            }
        }
        inc
    }
}

/// Bit-reversal of an 8-bit rank: spreads popularity ranks evenly over
/// the sorted degree profile.
fn bitrev8(r: usize) -> usize {
    (r as u8).reverse_bits() as usize
}

/// Sources of the `fanout` / `burst` graph.
pub const FANOUT_SOURCES: usize = 256;

/// The fan-out (raw items) of the source at each popularity rank, skewed
/// toward small: half the sources have 4, a quarter 8, ... and four have
/// 256 (mean 16). The profile is fixed; the bit-reversed assignment
/// gives hot and cold sources the same degree mix for every seed, so
/// the expected work per update does not depend on the seed.
pub fn fanout_degree(rank: usize) -> usize {
    const STEPS: [(usize, usize); 7] = [
        (128, 4),
        (192, 8),
        (224, 16),
        (240, 32),
        (248, 64),
        (252, 128),
        (256, 256),
    ];
    let slot = bitrev8(rank);
    STEPS
        .iter()
        .find(|(end, _)| slot < *end)
        .expect("slot < 256")
        .1
}

/// The query-graph-shaped DAG of `fanout` and `burst`: per source node
/// `d` raw items on its `tick`, `d / 2` four-way combos over overlapping
/// raw windows (diamonds), and one `total` over the combos. Returns the
/// graph and the source at each popularity rank.
pub fn fanout_dag(rng: &mut Rng) -> (Dag, Vec<usize>) {
    let by_rank = rng.permutation(FANOUT_SOURCES);
    let mut degree = vec![0; FANOUT_SOURCES];
    for (rank, &s) in by_rank.iter().enumerate() {
        degree[s] = fanout_degree(rank);
    }
    let mut items = Vec::new();
    for (s, &d) in degree.iter().enumerate() {
        let node = s as u32;
        let base = items.len();
        for i in 0..d {
            items.push(Item {
                node,
                name: format!("raw{i}"),
                def: Def::Raw {
                    source: s,
                    offset: i as u64,
                },
            });
        }
        let wiring = rng.permutation(d);
        let combo_base = items.len();
        for j in 0..d / 2 {
            items.push(Item {
                node,
                name: format!("combo{j}"),
                def: Def::Sum {
                    deps: (0..4).map(|t| base + wiring[(2 * j + t) % d]).collect(),
                    plus: j as u64,
                },
            });
        }
        items.push(Item {
            node,
            name: "total".into(),
            def: Def::Sum {
                deps: (combo_base..items.len()).collect(),
                plus: 0,
            },
        });
    }
    let source_nodes = (0..FANOUT_SOURCES as u32).collect();
    (
        Dag {
            items,
            source_nodes,
        },
        by_rank,
    )
}

pub const CHURN_NODES: usize = 1000;
pub const CHURN_PER_NODE: usize = 100;

/// The `churn` catalog: per node a binary tree of 100 items rooted at a
/// raw item on the node's `tick`; every tenth item also depends on a
/// near-root item (depth < 2, which has no remote dependency itself) of
/// a lower-numbered node.
pub fn churn_dag(rng: &mut Rng) -> Dag {
    let mut items = Vec::with_capacity(CHURN_NODES * CHURN_PER_NODE);
    for n in 0..CHURN_NODES {
        let base = n * CHURN_PER_NODE;
        for i in 0..CHURN_PER_NODE {
            let def = if i == 0 {
                Def::Raw {
                    source: n,
                    offset: 0,
                }
            } else {
                let mut deps = vec![base + (i - 1) / 2];
                if i % 10 == 9 && n > 0 {
                    deps.push(rng.below(n) * CHURN_PER_NODE + rng.below(3));
                }
                Def::Sum {
                    deps,
                    plus: i as u64,
                }
            };
            items.push(Item {
                node: n as u32,
                name: format!("m{i}"),
                def,
            });
        }
    }
    Dag {
        items,
        source_nodes: (0..CHURN_NODES as u32).collect(),
    }
}

pub const PLANE_OWNERS: usize = 512;
pub const PLANE_PER_OWNER: usize = 16;
pub const PLANE_MIRRORS: usize = 4096;
/// First node id of the mirror nodes.
pub const MIRROR_BASE: u32 = 1_000_000;

/// The `plane` graph: 512 owner nodes of 16 raw items each, and 4096
/// mirror nodes, each with one `mirror` item equal to a distinct owner
/// item. Mirror `j` is item `PLANE_OWNERS * PLANE_PER_OWNER + j`; its node
/// id is provisional until the plane places it on another partition
/// than its owner.
pub fn plane_dag(rng: &mut Rng) -> Dag {
    let mut items = Vec::new();
    for n in 0..PLANE_OWNERS {
        for i in 0..PLANE_PER_OWNER {
            items.push(Item {
                node: n as u32,
                name: format!("m{i}"),
                def: Def::Raw {
                    source: n,
                    offset: i as u64,
                },
            });
        }
    }
    let owned = rng.permutation(items.len());
    for (j, &owner) in owned.iter().take(PLANE_MIRRORS).enumerate() {
        items.push(Item {
            node: MIRROR_BASE + j as u32,
            name: "mirror".into(),
            def: Def::Sum {
                deps: vec![owner],
                plus: 0,
            },
        });
    }
    Dag {
        items,
        source_nodes: (0..PLANE_OWNERS as u32).collect(),
    }
}

/// Five items checked by hand: raws a, b on source 0 (node 0); c = a + b
/// + 1, d = b + 2; e = c + d.
#[cfg(test)]
pub fn five() -> Dag {
    let raw = |name: &str, offset| Item {
        node: 0,
        name: name.into(),
        def: Def::Raw { source: 0, offset },
    };
    let sum = |name: &str, deps: Vec<usize>, plus| Item {
        node: 0,
        name: name.into(),
        def: Def::Sum { deps, plus },
    };
    Dag {
        items: vec![
            raw("a", 0),
            raw("b", 1),
            sum("c", vec![0, 1], 1),
            sum("d", vec![1], 2),
            sum("e", vec![2, 3], 0),
        ],
        source_nodes: vec![0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_item_values() {
        let dag = five();
        let s = RAW_STRIDE;
        // counter 3: a = 3s, b = 3s + 1, c = 6s + 2, d = 3s + 3, e = 9s + 5.
        assert_eq!(
            dag.values(&[3]),
            vec![3 * s, 3 * s + 1, 6 * s + 2, 3 * s + 3, 9 * s + 5]
        );
    }

    #[test]
    fn five_item_reach_and_closure() {
        let dag = five();
        let all = vec![true; 5];
        assert_eq!(dag.reach(0, &all), all);
        // Subscribing d includes d and b only.
        let inc = dag.closure([3]);
        assert_eq!(inc, vec![false, true, false, true, false]);
        // A tick then recomputes only what is included.
        assert_eq!(dag.reach(0, &inc), inc);
        assert_eq!(dag.closure([4]), all);
    }

    #[test]
    fn fanout_profile_is_fixed_and_skewed() {
        let degrees: Vec<usize> = (0..FANOUT_SOURCES).map(fanout_degree).collect();
        assert_eq!(degrees.iter().sum::<usize>(), 16 * FANOUT_SOURCES);
        assert_eq!(degrees.iter().filter(|&&d| d == 4).count(), 128);
        assert_eq!(degrees.iter().filter(|&&d| d == 256).count(), 4);
        // The four hottest ranks already mix small and large fan-out.
        assert_eq!(&degrees[..4], &[4, 8, 4, 16]);
    }

    #[test]
    fn generated_graphs_are_in_dependency_order() {
        let mut rng = Rng::new(5);
        for dag in [
            fanout_dag(&mut rng).0,
            churn_dag(&mut rng),
            plane_dag(&mut rng),
        ] {
            for i in 0..dag.items.len() {
                assert!(dag.deps(i).iter().all(|&d| d < i));
            }
        }
    }
}
