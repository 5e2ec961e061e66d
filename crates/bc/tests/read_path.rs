//! Read-path equivalence: for any versioned op history (borns past the
//! header's 7-bit field and tombstoned rows included), a charged scan
//! in a one-block launch, an uncharged host scan, and the host store's
//! epoch-visible slots yield the same neighbours for every row at every
//! stage version.

use dynbc_bc::gpu::buffers::SlackGraphBuffers;
use dynbc_bc::gpu::kernels::{GraphView, RowCheck};
use dynbc_gpusim::{DeviceConfig, DeviceReader, Gpu, HostReader};
use dynbc_graph::slack::epoch_visible;
use dynbc_graph::{Csr, DynGraph, EdgeList, SlackCsr, VertexId};
use proptest::prelude::*;
use std::sync::Mutex;

/// Row `v`'s visible neighbours at `view`, decoded through `r`.
fn scan<R: DeviceReader>(view: GraphView<'_>, r: &mut R, v: VertexId) -> Vec<VertexId> {
    let (start, end, check) = view.row(r, v);
    (start..end)
        .filter_map(|e| view.slot(r, &check, e))
        .collect()
}

/// Syncs the mirror and checks every row at versions `0..=top`;
/// returns which of the Packed, SkipAt and Epoch grades occurred.
fn check_stage(
    gpu: &mut Gpu,
    store: &mut SlackGraphBuffers,
    slack: &mut SlackCsr,
    top: u32,
) -> [bool; 3] {
    store.sync(gpu, slack);
    let (store, n) = (&*store, store.n);
    let charged = Mutex::new(vec![Vec::new(); (top as usize + 1) * n]);
    gpu.launch_named("read_path", 1, |block, _| {
        block.parallel_for((top as usize + 1) * n, |lane, i| {
            let view = GraphView {
                store,
                ver: (i / n) as u32,
            };
            let got = scan(view, lane, (i % n) as VertexId);
            charged.lock().unwrap()[i] = got;
        });
    });
    let charged = charged.into_inner().unwrap();
    let mut grades = [false; 3];
    for (i, charged) in charged.iter().enumerate() {
        let (ver, v) = ((i / n) as u32, (i % n) as VertexId);
        let view = GraphView { store, ver };
        let (start, end) = slack.occupied(v);
        let host: Vec<VertexId> = (start..end)
            .filter(|&s| epoch_visible(slack.epochs()[s], ver))
            .map(|s| slack.adj()[s])
            .collect();
        assert_eq!(*charged, host, "charged scan, row {v} at version {ver}");
        assert_eq!(
            scan(view, &mut HostReader, v),
            host,
            "uncharged scan, row {v} at version {ver}"
        );
        grades[match view.row(&mut HostReader, v).2 {
            RowCheck::Packed => 0,
            RowCheck::SkipAt(_) => 1,
            RowCheck::Epoch => 2,
        }] = true;
    }
    grades
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn charged_uncharged_and_host_reads_agree(
        n in 2usize..24,
        edges in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
        ops in proptest::collection::vec((0u32..24, 0u32..24, any::<bool>()), 0..400),
        long_stages in any::<bool>(),
        short_len in 1u32..10,
        long_len in 128u32..200,
        slack_pct in 0u32..60,
        compact_pct in 0u32..100,
    ) {
        let stage_len = if long_stages { long_len } else { short_len };
        let m = n as u32;
        let el = EdgeList::from_pairs(n, edges.into_iter().map(|(u, v)| (u % m, v % m)));
        let mut gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut probe = DynGraph::from_edge_list(&el);
        let mut slack = SlackCsr::from_csr(&Csr::from_edge_list(&el), slack_pct, compact_pct);
        let mut store = SlackGraphBuffers::from_slack(&gpu, &slack);
        let mut ver = 0;
        for (u, v, insert) in ops {
            let (u, v) = (u % m, v % m);
            // Batches are validated upstream; feed only valid ops.
            if u == v || probe.has_edge(u, v) == insert {
                continue;
            }
            ver += 1;
            if insert {
                probe.insert_edge(u, v);
                slack.insert_edge_versioned(u, v, ver);
            } else {
                probe.remove_edge(u, v);
                slack.remove_edge_versioned(u, v, ver);
            }
            if ver == stage_len {
                check_stage(&mut gpu, &mut store, &mut slack, ver);
                slack.settle();
                check_stage(&mut gpu, &mut store, &mut slack, 0);
                ver = 0;
            }
        }
        check_stage(&mut gpu, &mut store, &mut slack, ver);
        slack.settle();
        check_stage(&mut gpu, &mut store, &mut slack, 0);
        prop_assert_eq!(slack.to_csr(), probe.to_csr());
    }
}

/// Histories like the property's reach every grade, including a staged
/// born past the 7-bit field and a tombstoned row.
#[test]
fn fixed_history_reaches_every_grade() {
    let el = EdgeList::from_pairs(24, [(0, 1), (2, 3)]);
    let mut gpu = Gpu::new(DeviceConfig::test_tiny());
    let mut slack = SlackCsr::from_csr(&Csr::from_edge_list(&el), 25, 100);
    let mut store = SlackGraphBuffers::from_slack(&gpu, &slack);
    slack.remove_edge_versioned(2, 3, 1);
    slack.settle(); // a tombstone in rows 2 and 3
    let pairs = (4..24u32).flat_map(|u| (u + 1..24).map(move |v| (u, v)));
    for (ver, (u, v)) in (1..=130).zip(pairs) {
        slack.insert_edge_versioned(u, v, ver);
    }
    let grades = check_stage(&mut gpu, &mut store, &mut slack, 130);
    assert_eq!(
        grades, [true; 3],
        "packed, skip-at and epoch grades all seen"
    );
}
