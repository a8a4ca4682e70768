//! One definition per figure of the paper's evaluation (§7).
//!
//! A figure is its topology and scale, its x-axis, its schemes (the
//! legend), its load and churn, and the oracle check — then one run of the
//! shared cell runner per (scheme, x) point. The paper's claim about each figure
//! is not here: it is an assertion in `tests/paper_claims.rs` and a row of
//! REPRODUCTION.md.

use std::fmt::Display;
use std::time::Duration;

use netrec_core::{dred, AggSelChoice, ClusterSpec, RunBudget, System, SystemConfig};
use netrec_engine::{ShipPolicy, Strategy};
use netrec_prov::ProvMode;
use netrec_topo::{
    random_graph, transit_stub, transit_stub_for_links, Density, SensorGrid, SensorGridParams,
    Topology, TransitStubParams, Workload,
};

use crate::{Figure, Panels, Scale};

/// A figure's definition: run it at a scale.
pub type Definition = fn(Scale) -> Figure;

/// Every figure, by id: what the `figures` bench prints.
pub const FIGURES: [(&str, Definition); 9] = [
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("ablation_minship_batch", ablation_minship_batch),
];

/// The query a cell maintains.
#[derive(Clone, Copy, Debug)]
enum Query {
    /// Query 1, `reachable`.
    Reachable,
    /// Query 3, the sensor-region cascade.
    Regions,
    /// Query 2, shortest paths under an aggregate-selection choice.
    Paths(AggSelChoice),
}

impl Query {
    fn system(self, config: SystemConfig) -> System {
        match self {
            Query::Reachable => System::reachable(config),
            Query::Regions => System::regions(config),
            Query::Paths(choice) => System::shortest_paths(config, choice),
        }
    }

    /// The views the query maintains exactly, i.e. the ones a converged
    /// run must agree with the oracle on. Cost-only pruning keeps a
    /// cheapest path but may drop a shorter dearer one, so it leaves
    /// `minHops` inexact.
    fn exact_views(self) -> &'static [&'static str] {
        match self {
            Query::Reachable => &["reachable"],
            Query::Regions => &["regionSizes"],
            Query::Paths(AggSelChoice::SingleCost) => &["minCost"],
            Query::Paths(_) => &["minCost", "minHops"],
        }
    }
}

/// One point of a figure: one scheme at one x.
struct Cell {
    query: Query,
    /// Scheme, peers, cluster and budget.
    config: SystemConfig,
    /// Run to quiescence before the measured phase and not reported — a
    /// budget cut-off here is the cell's result.
    load: Option<Workload>,
    /// The measured phase. In set mode its deletions run under DRed
    /// (over-delete, then re-derive); in every other mode they are
    /// cause-deletes.
    update: Workload,
    /// Report load and update as one run (Fig. 13) instead of the update
    /// alone.
    report_load: bool,
}

impl Cell {
    /// A cell whose measured phase starts from an empty system.
    fn update(query: Query, config: SystemConfig, update: Workload) -> Cell {
        Cell {
            query,
            config,
            load: None,
            update,
            report_load: false,
        }
    }

    /// A cell that loads `load` unmeasured, then measures `update`.
    fn after(query: Query, config: SystemConfig, load: Workload, update: Workload) -> Cell {
        Cell {
            load: Some(load),
            ..Cell::update(query, config, update)
        }
    }

    /// Build the system, load, churn, check against the oracle wherever
    /// the mode is exact, and report the measured phase.
    fn run(self) -> Panels {
        let strategy = self.config.strategy;
        let mode = strategy.mode;
        let mut sys = self.query.system(self.config);
        let load = self.load.map(|load| {
            sys.apply(&load);
            sys.run("load")
        });
        if let Some(load) = load.as_ref().filter(|l| !l.converged()) {
            return Panels::from_report(load);
        }
        sys.apply(&self.update);
        let report = if mode == ProvMode::Set && self.update.delete_count() > 0 {
            // `apply` queued the deletions (and took them out of the
            // oracle's base); DRed's two phases run over them.
            dred::dred_delete(sys.runner(), &[])
        } else {
            sys.run("update")
        };
        if report.converged() && mode != ProvMode::Relative {
            for view in self.query.exact_views() {
                assert_eq!(
                    sys.view(view),
                    sys.oracle_view(view),
                    "{} diverged from the oracle on {view}",
                    strategy.label()
                );
            }
        }
        match load {
            Some(load) if self.report_load => {
                Panels::from_report(&load.merged(report, "load+update"))
            }
            _ => Panels::from_report(&report),
        }
    }
}

/// Run `cell` for every (row, x) and collect the panels as a figure. Each
/// cell is also reported on stderr as it finishes: a full-scale figure runs
/// for up to an hour, and a cell can abort it.
fn figure<R: Copy, X: Display>(
    id: &str,
    title: String,
    x_label: &str,
    xs: &[X],
    rows: &[(&str, R)],
    cell: impl Fn(R, &X) -> Panels,
) -> Figure {
    let mut fig = Figure::new(
        id,
        title,
        x_label,
        xs.iter().map(|x| x.to_string()).collect(),
    );
    for &(label, row) in rows {
        let series = xs.iter().map(|x| {
            let panels = cell(row, x);
            eprintln!("{id} | {label} | {x} | {panels:?}");
            panels
        });
        fig.push_row(label, series.collect());
    }
    fig
}

/// The events a quick-scale phase may process. Tier-1 asserts on quick
/// runs, so their cut-off is a count of DES events — the same on every
/// host and build — never wall time.
const QUICK_EVENTS: u64 = 20_000;

/// `full` at full scale. At quick scale: `full`'s simulated-time cap, cut
/// off at [`QUICK_EVENTS`], with a wall-clock guard no quick cell reaches.
fn budget(scale: Scale, full: RunBudget) -> RunBudget {
    match scale {
        Scale::Full => full,
        Scale::Quick => RunBudget {
            max_events: QUICK_EVENTS,
            max_wall: Duration::from_secs(600),
            ..full
        },
    }
}

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

fn peers(scale: Scale) -> u32 {
    scale.pick(4, 12)
}

/// The router network of Figs. 7, 8 and 13: the paper's 100-node
/// transit-stub, or a 7-node one of the same shape.
fn routers(scale: Scale) -> Topology {
    let quick = TransitStubParams {
        transits_per_domain: 1,
        stubs_per_transit: 2,
        nodes_per_stub: 3,
        ..Default::default()
    };
    transit_stub(scale.pick(quick, TransitStubParams::default()), 42)
}

/// The sensor field of Figs. 9 and 10: the paper's 100 sensors and 5 seed
/// regions, or 25 sensors and 2.
fn sensors(scale: Scale) -> SensorGrid {
    let quick = SensorGridParams {
        sensors: 25,
        seeds: 2,
        ..Default::default()
    };
    SensorGrid::generate(scale.pick(quick, SensorGridParams::default()), 42)
}

/// The static part of a sensor field: positions, proximity, seed regions.
fn field(grid: &SensorGrid) -> Workload {
    grid.sensor_ops()
        .then(grid.near_ops())
        .then(grid.seed_ops())
}

/// A network of about `links` link tuples at `density` (the x-axis of
/// Figs. 11, 12 and 14). At full scale the transit-stub generator sizes it;
/// it bottoms out at 25 nodes, so quick scale uses a random graph of the
/// same degree.
fn network(scale: Scale, links: usize, density: Density) -> Topology {
    match scale {
        Scale::Quick => random_graph(links / density.degree(), links / 2, 42),
        Scale::Full => transit_stub_for_links(links, density, 42),
    }
}

/// Absorption with `ship` as its MinShip policy.
fn absorption(ship: ShipPolicy) -> Strategy {
    Strategy {
        ship,
        ..Strategy::absorption_lazy()
    }
}

/// Figure 7: `reachable` computed as a growing fraction of the link
/// tuples is inserted, under every scheme.
pub fn fig07(scale: Scale) -> Figure {
    let topo = routers(scale);
    let peers = peers(scale);
    let budget = budget(scale, RunBudget::sim_seconds(300).with_wall(secs(60)));
    figure(
        "fig07",
        format!(
            "reachable: insertion workload ({} nodes, {} link tuples, {peers} peers)",
            topo.node_count(),
            topo.link_tuple_count()
        ),
        "insertion ratio",
        &[0.5, 0.75, 1.0],
        &[
            ("DRed", Strategy::set()),
            ("Relative Eager", Strategy::relative_eager()),
            ("Relative Lazy", Strategy::relative_lazy()),
            ("Absorption Eager", Strategy::absorption_eager()),
            ("Absorption Lazy", Strategy::absorption_lazy()),
        ],
        |strategy, &ratio| {
            let config = SystemConfig::new(strategy, peers).with_budget(budget);
            let insert = Workload::insert_links(&topo, ratio, 7);
            Cell::update(Query::Reachable, config, insert).run()
        },
    )
}

/// Figure 8: `reachable` maintained as a growing fraction of the link
/// tuples is deleted from the loaded network.
pub fn fig08(scale: Scale) -> Figure {
    let topo = routers(scale);
    let peers = peers(scale);
    let budget = budget(scale, RunBudget::sim_seconds(300).with_wall(secs(90)));
    let ratios = scale.pick(vec![0.2, 0.6, 1.0], vec![0.2, 0.4, 0.6, 0.8, 1.0]);
    figure(
        "fig08",
        format!(
            "reachable: deletion workload ({} nodes, {} link tuples, {peers} peers)",
            topo.node_count(),
            topo.link_tuple_count()
        ),
        "deletion ratio",
        &ratios,
        &[
            ("DRed", Strategy::set()),
            ("Relative Lazy", Strategy::relative_lazy()),
            ("Absorption Eager", Strategy::absorption_eager()),
            ("Absorption Lazy", Strategy::absorption_lazy()),
        ],
        |strategy, &ratio| {
            let config = SystemConfig::new(strategy, peers).with_budget(budget);
            let load = Workload::insert_links(&topo, 1.0, 7);
            let delete = Workload::delete_links(&topo, ratio, 13);
            Cell::after(Query::Reachable, config, load, delete).run()
        },
    )
}

/// Figure 9: the region cascade computed as a growing fraction of the
/// sensors triggers.
pub fn fig09(scale: Scale) -> Figure {
    let grid = sensors(scale);
    let peers = peers(scale);
    let budget = budget(scale, RunBudget::sim_seconds(300).with_wall(secs(60)));
    figure(
        "fig09",
        format!(
            "region: trigger (insertion) workload ({} sensors, {} seeds, {peers} peers)",
            grid.sensor_count(),
            grid.seeds.len()
        ),
        "trigger ratio",
        &[0.5, 0.75, 1.0],
        &[
            ("DRed", Strategy::set()),
            ("Absorption Eager", Strategy::absorption_eager()),
            ("Absorption Lazy", Strategy::absorption_lazy()),
        ],
        |strategy, &ratio| {
            let config = SystemConfig::new(strategy, peers).with_budget(budget);
            let trigger = grid.trigger_ops(ratio, 3);
            Cell::after(Query::Regions, config, field(&grid), trigger).run()
        },
    )
}

/// Figure 10: the region cascade maintained as a growing fraction of the
/// triggered sensors untriggers.
pub fn fig10(scale: Scale) -> Figure {
    let grid = sensors(scale);
    let peers = peers(scale);
    let budget = budget(scale, RunBudget::sim_seconds(300).with_wall(secs(60)));
    let ratios = scale.pick(vec![0.2, 0.6, 1.0], vec![0.2, 0.4, 0.6, 0.8, 1.0]);
    figure(
        "fig10",
        format!(
            "region: untrigger (deletion) workload ({} sensors, {peers} peers)",
            grid.sensor_count()
        ),
        "deletion ratio of triggered sensors",
        &ratios,
        &[
            ("DRed", Strategy::set()),
            ("Absorption Eager", Strategy::absorption_eager()),
            ("Absorption Lazy", Strategy::absorption_lazy()),
        ],
        |strategy, &ratio| {
            let config = SystemConfig::new(strategy, peers).with_budget(budget);
            let load = field(&grid).then(grid.trigger_ops(0.5, 3));
            let untrigger = grid.untrigger_ops(0.5, ratio, 3);
            Cell::after(Query::Regions, config, load, untrigger).run()
        },
    )
}

/// The legend of Figs. 11 and 12: absorption, eager or lazy, on dense or
/// sparse networks.
fn ship_x_density() -> [(&'static str, (ShipPolicy, Density)); 4] {
    [
        ("Eager Dense", (ShipPolicy::eager_1s(), Density::Dense)),
        ("Lazy Dense", (ShipPolicy::Lazy, Density::Dense)),
        ("Eager Sparse", (ShipPolicy::eager_1s(), Density::Sparse)),
        ("Lazy Sparse", (ShipPolicy::Lazy, Density::Sparse)),
    ]
}

/// The x-axis of Figs. 11 and 12: total link tuples.
fn link_sizes(scale: Scale) -> Vec<usize> {
    scale.pick(vec![20, 24, 28], vec![100, 200, 400, 800])
}

/// Figure 11: scaling the input — `reachable` loaded on networks of
/// growing size.
pub fn fig11(scale: Scale) -> Figure {
    let peers = peers(scale);
    let budget = budget(scale, RunBudget::sim_seconds(300).with_wall(secs(90)));
    figure(
        "fig11",
        format!("reachable: scaling link tuples, insertion workload ({peers} peers)"),
        "total link tuples",
        &link_sizes(scale),
        &ship_x_density(),
        |(ship, density), &links| {
            let topo = network(scale, links, density);
            let config = SystemConfig::new(absorption(ship), peers).with_budget(budget);
            Cell::update(
                Query::Reachable,
                config,
                Workload::insert_links(&topo, 1.0, 7),
            )
            .run()
        },
    )
}

/// Figure 12: scaling the input — 20% of the link tuples deleted from the
/// loaded network (the paper's "deleting an additional 20% of the links").
pub fn fig12(scale: Scale) -> Figure {
    let peers = peers(scale);
    let budget = budget(scale, RunBudget::sim_seconds(300).with_wall(secs(90)));
    figure(
        "fig12",
        format!("reachable: scaling link tuples, delete 20% after load ({peers} peers)"),
        "total link tuples",
        &link_sizes(scale),
        &ship_x_density(),
        |(ship, density), &links| {
            let topo = network(scale, links, density);
            let config = SystemConfig::new(absorption(ship), peers).with_budget(budget);
            let load = Workload::insert_links(&topo, 1.0, 7);
            let delete = Workload::delete_links(&topo, 0.2, 13);
            Cell::after(Query::Reachable, config, load, delete).run()
        },
    )
}

/// Figure 13: the input held constant while the physical peers vary — a
/// full load plus a 20% deletion, reported together and **per peer** (as
/// the paper does). Beyond 16 peers the cluster is §7.1's 16 + 8 pair
/// joined by a slow link.
pub fn fig13(scale: Scale) -> Figure {
    let topo = routers(scale);
    let budget = budget(scale, RunBudget::sim_seconds(300).with_wall(secs(90)));
    figure(
        "fig13",
        format!(
            "reachable: varying physical peers ({} nodes, {} link tuples; comm and state per peer)",
            topo.node_count(),
            topo.link_tuple_count()
        ),
        "physical peers",
        &[4u32, 8, 12, 16, 24],
        &[
            ("DRed", Strategy::set()),
            ("Absorption Lazy", Strategy::absorption_lazy()),
        ],
        |strategy, &peers| {
            let cluster = if peers > 16 {
                ClusterSpec::two_clusters(16, peers - 16)
            } else {
                ClusterSpec::single(peers)
            };
            let config = SystemConfig::new(strategy, peers)
                .with_cluster(cluster)
                .with_budget(budget);
            let load = Workload::insert_links(&topo, 1.0, 7);
            let delete = Workload::delete_links(&topo, 0.2, 13);
            let cell = Cell {
                report_load: true,
                ..Cell::after(Query::Reachable, config, load, delete)
            };
            let panels = cell.run();
            Panels {
                comm_mb: panels.comm_mb / f64::from(peers),
                state_mb: panels.state_mb / f64::from(peers),
                ..panels
            }
        },
    )
}

/// Figure 14: aggregate selection on the shortest-path cascade — both
/// objectives, cost only, or none — on dense and sparse networks.
pub fn fig14(scale: Scale) -> Figure {
    let links = scale.pick(20, 400);
    let peers = peers(scale);
    // Unpruned path enumeration grows state inside single large join
    // batches, so the full-scale budget bounds events as well as wall time.
    let full = RunBudget {
        max_events: 2_000_000,
        ..RunBudget::sim_seconds(300).with_wall(secs(60))
    };
    let budget = budget(scale, full);
    figure(
        "fig14",
        format!(
            "shortestCheapestPath: aggregate selection variants (~{links} link tuples, {peers} peers)"
        ),
        "topology",
        &["Dense", "Sparse"],
        &[
            ("Multi AggSel", AggSelChoice::Multi),
            ("Single AggSel", AggSelChoice::SingleCost),
            ("No AggSel", AggSelChoice::None),
        ],
        |choice, &density| {
            let density = match density {
                "Dense" => Density::Dense,
                _ => Density::Sparse,
            };
            let topo = network(scale, links, density);
            let config = SystemConfig::new(Strategy::absorption_lazy(), peers).with_budget(budget);
            let load = Workload::insert_links(&topo, 1.0, 7);
            Cell::update(Query::Paths(choice), config, load).run()
        },
    )
}

/// Ablation: MinShip's batching window (§5: "By changing the batching
/// interval or conditions, we can adjust how many alternate derivations are
/// propagated"), swept from no buffer to lazy on the Fig. 7 load.
pub fn ablation_minship_batch(scale: Scale) -> Figure {
    let topo = routers(scale);
    let peers = peers(scale);
    let budget = budget(scale, RunBudget::sim_seconds(600).with_wall(secs(90)));
    let eager = |period, batch| ShipPolicy::Eager { period, batch };
    figure(
        "ablation_minship_batch",
        format!(
            "MinShip batching window sweep (reachable inserts, {} nodes, {peers} peers)",
            topo.node_count()
        ),
        "policy",
        &["insert 100%"],
        &[
            ("Immediate (no buffer)", ShipPolicy::Immediate),
            (
                "Eager 100ms",
                eager(netrec_types::Duration::from_millis(100), 256),
            ),
            ("Eager 1s (paper)", ShipPolicy::eager_1s()),
            (
                "Eager 10s",
                eager(netrec_types::Duration::from_secs(10), 1 << 20),
            ),
            ("Lazy (∞)", ShipPolicy::Lazy),
        ],
        |ship, _| {
            let config = SystemConfig::new(absorption(ship), peers).with_budget(budget);
            let insert = Workload::insert_links(&topo, 1.0, 7);
            Cell::update(Query::Reachable, config, insert).run()
        },
    )
}
