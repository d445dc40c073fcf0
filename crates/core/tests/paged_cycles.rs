//! A page file whose node graph loops back on itself must stop every
//! best-first traversal over pages — paged BBS, the paged global
//! skyline and BBRS, and the engine calls built on them — with
//! `PersistError::Format`, not run forever.
//!
//! Each traversal runs on its own thread while the test watches the
//! buffer pool: a traversal that reads far more pages than the whole
//! tree holds, or outlives [`DEADLINE`], fails the test. An endless
//! descent grows its heap with every page it reads, so the read budget
//! stops a regression long before it can exhaust memory.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wnrs_core::PagedEngine;
use wnrs_geometry::{CostModel, Point};
use wnrs_reverse_skyline::{paged_bbrs_reverse_skyline, paged_global_skyline};
use wnrs_rtree::bulk::bulk_load;
use wnrs_rtree::config::{entry_bytes, NODE_HEADER_BYTES};
use wnrs_rtree::paged::NodeBuf;
use wnrs_rtree::persist::{save, PersistError};
use wnrs_rtree::{ItemId, PagedRTree, RTreeConfig};
use wnrs_skyline::{paged_bbs_dynamic_skyline, PagedBbsScratch};
use wnrs_storage::{BufferPool, MemPager, Pager};

/// Page reads after which a traversal of the 2000-point tree (about
/// 60 pages) counts as endless.
const READ_BUDGET: u64 = 100_000;

/// How long one traversal may take before it counts as endless.
const DEADLINE: Duration = Duration::from_secs(60);

fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / f64::from(u32::MAX)
    };
    (0..n)
        .map(|_| Point::xy(next() * 100.0, next() * 100.0))
        .collect()
}

/// A 2000-point page file whose root's last entry points back at the
/// root, opened through a small pool, plus the centre of that entry's
/// rectangle: a query there reaches the bad entry before any found
/// point can prune it.
fn self_referencing_root() -> (PagedRTree<MemPager>, Point) {
    let pts = pseudo_points(2000, 17);
    let tree = bulk_load(&pts, RTreeConfig::paper_default(2));
    let pager = Arc::new(MemPager::paper_default());
    let meta = save(&tree, pager.as_ref()).expect("save");
    let intact = PagedRTree::open(BufferPool::new(Arc::clone(&pager), 4), meta).expect("open");
    let root = intact.root_page();
    let mut node = NodeBuf::new();
    intact.read_node_into(root, &mut node).expect("intact root");
    assert!(!node.is_leaf(), "2000 points need an inner root");
    let last = node.len() - 1;
    let centre = Point::new(
        node.lo(last)
            .iter()
            .zip(node.hi(last))
            .map(|(l, h)| (l + h) / 2.0)
            .collect::<Vec<_>>(),
    );
    let mut page = pager.read_page(root).expect("read");
    let at = NODE_HEADER_BYTES + last * entry_bytes(2);
    page.bytes_mut()[at..at + 8].copy_from_slice(&root.0.to_le_bytes());
    pager.write_page(root, &page).expect("write");
    let paged = PagedRTree::open(BufferPool::new(pager, 4), meta).expect("open");
    (paged, centre)
}

/// Runs `traverse` over `subject` (built on a cyclic page file) and
/// asserts it returns a format error within the read budget and the
/// deadline; `tree` finds the paged tree inside `subject`.
fn assert_format_error<S, T>(
    what: &str,
    subject: S,
    tree: fn(&S) -> &PagedRTree<MemPager>,
    traverse: impl FnOnce(&S) -> Result<T, PersistError> + Send + 'static,
) where
    S: Send + Sync + 'static,
    T: Send + 'static,
{
    let subject = Arc::new(subject);
    let worker = {
        let subject = Arc::clone(&subject);
        thread::spawn(move || traverse(&subject).err())
    };
    // On failure the worker is left running: an endless descent cannot
    // be joined, so the test process ends it on exit.
    let start = Instant::now();
    while !worker.is_finished() {
        let reads = tree(&subject).pool().stats().logical_reads();
        assert!(
            reads < READ_BUDGET,
            "{what}: still descending after {reads} page reads"
        );
        assert!(
            start.elapsed() < DEADLINE,
            "{what}: no answer within {DEADLINE:?}"
        );
        thread::sleep(Duration::from_millis(1));
    }
    match worker.join().expect("traversal panicked") {
        Some(PersistError::Format(_)) => {}
        Some(e) => panic!("{what}: wrong error {e}"),
        None => panic!("{what}: a cyclic page file was accepted"),
    }
}

fn itself(tree: &(PagedRTree<MemPager>, Point)) -> &PagedRTree<MemPager> {
    &tree.0
}

#[test]
fn paged_bbs_rejects_a_cyclic_page_file() {
    assert_format_error(
        "paged BBS",
        self_referencing_root(),
        itself,
        |(paged, q)| {
            paged_bbs_dynamic_skyline(paged, q.coords(), None, &mut PagedBbsScratch::new())
        },
    );
}

#[test]
fn paged_global_skyline_rejects_a_cyclic_page_file() {
    assert_format_error(
        "paged global skyline",
        self_referencing_root(),
        itself,
        |(paged, q)| paged_global_skyline(paged, q),
    );
}

#[test]
fn paged_bbrs_rejects_a_cyclic_page_file() {
    assert_format_error(
        "paged BBRS",
        self_referencing_root(),
        itself,
        |(paged, q)| paged_bbrs_reverse_skyline(paged, q),
    );
}

#[test]
fn paged_engine_mqp_rejects_a_cyclic_page_file() {
    let (paged, c) = self_referencing_root();
    let cost = CostModel::paper_default(&[Point::xy(0.0, 0.0), Point::xy(100.0, 100.0)]);
    let engine = PagedEngine::from_tree(paged, cost).expect("the root itself is intact");
    assert_format_error(
        "paged MQP",
        (engine, c),
        |s| s.0.tree(),
        |(engine, c)| engine.mqp(c, Some(ItemId(0)), &Point::xy(99.0, 99.0)),
    );
}
