//! A page-resident, read-only R\*-tree view.
//!
//! [`crate::persist`] materialises a persisted tree back into an arena;
//! [`PagedRTree`] instead answers window queries *directly against the
//! pages*, pulling nodes through an LRU [`BufferPool`] and decoding them
//! on the fly. This is how the paper's testbed actually executes —
//! index traffic goes through the buffer manager — and it makes the
//! logical/physical I/O split measurable: `pool().stats()` reports
//! hits/misses while queries run with bounded memory.
//!
//! Every window-shaped query runs on one traversal,
//! [`PagedRTree::window_try_for_each`], which decodes each node into a
//! reused [`NodeBuf`] and hands the visitor raw coordinate slices, so a
//! query allocates only what its caller keeps.

use crate::config::{entry_bytes, RTreeConfig, NODE_HEADER_BYTES};
use crate::node::ItemId;
use crate::persist::{Meta, PersistError, ITEM_TAG};
use std::ops::ControlFlow;
use wnrs_geometry::{Point, Rect};
use wnrs_storage::{BufferPool, Decoder, PageId, Pager};

/// A reusable, allocation-free decode target for one node page.
///
/// Traversals decode nodes into one of these instead of materialising
/// [`Rect`]s per entry: children stay as raw tagged ids, coordinates as
/// one flat `lo‖hi` buffer per entry. Reusing the buffer across
/// [`PagedRTree::read_node_into`] calls keeps a whole traversal at zero
/// steady-state allocations.
#[derive(Debug, Default)]
pub struct NodeBuf {
    level: u32,
    dim: usize,
    /// Tagged child ids: high bit set = item, clear = child page.
    children: Vec<u64>,
    /// `2·dim` coordinates per entry: `lo` then `hi`.
    coords: Vec<f64>,
}

impl NodeBuf {
    /// An empty buffer (filled by [`PagedRTree::read_node_into`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes a node page of `dim`-dimensional entries. The entry count
    /// comes from the page, so it is bounded by what the page holds
    /// before anything is reserved for it.
    pub(crate) fn decode(&mut self, bytes: &[u8], dim: usize) -> Result<(), PersistError> {
        let mut dec = Decoder::new(bytes);
        let level = dec.get_u32()?;
        let count = dec.get_u32()?;
        let entry = entry_bytes(dim);
        let body = (count as usize)
            .checked_mul(entry)
            .and_then(|len| bytes.get(NODE_HEADER_BYTES..NODE_HEADER_BYTES.checked_add(len)?))
            .ok_or_else(|| {
                PersistError::Format(format!(
                    "{count} entries of {entry} bytes overrun a {}-byte node page",
                    bytes.len()
                ))
            })?;
        self.level = level;
        self.dim = dim;
        self.children.clear();
        self.coords.clear();
        for e in body.chunks_exact(entry) {
            let (child, corners) = e.split_at(8);
            self.children.push(u64::from_le_bytes(word(child)));
            self.coords
                .extend(corners.chunks_exact(8).map(|c| f64::from_le_bytes(word(c))));
        }
        Ok(())
    }

    /// Checks that the node decoded from `page` fits where a
    /// level-`level` node belongs: its level is `level` and every entry
    /// is the kind that level holds (items in leaves, child pages
    /// above). Levels fall by one per step down, so a traversal that
    /// checks every node cannot follow a cyclic page graph forever.
    pub(crate) fn check_place(&self, page: PageId, level: u32) -> Result<(), PersistError> {
        if self.level != level {
            return Err(PersistError::Format(format!(
                "{page} holds a level-{} node where level {level} belongs",
                self.level
            )));
        }
        if let Some(i) = (0..self.len()).find(|&i| self.is_item(i) != self.is_leaf()) {
            return Err(PersistError::Format(format!(
                "{page}: entry {i} is the wrong kind for a level-{level} node"
            )));
        }
        Ok(())
    }

    /// The decoded node's level (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Whether the decoded node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Whether entry `i` is an item (leaf) entry.
    #[inline]
    pub fn is_item(&self, i: usize) -> bool {
        self.children[i] & ITEM_TAG != 0
    }

    /// The item id of leaf entry `i`.
    #[inline]
    pub fn item_id(&self, i: usize) -> ItemId {
        debug_assert!(self.is_item(i));
        ItemId((self.children[i] & !ITEM_TAG) as u32)
    }

    /// The child page of inner entry `i`.
    #[inline]
    pub fn child_page(&self, i: usize) -> PageId {
        debug_assert!(!self.is_item(i));
        PageId(self.children[i])
    }

    /// Entry `i`'s lower corner (the point itself for leaf entries).
    #[inline]
    pub fn lo(&self, i: usize) -> &[f64] {
        &self.coords[2 * self.dim * i..2 * self.dim * i + self.dim]
    }

    /// Entry `i`'s upper corner.
    #[inline]
    pub fn hi(&self, i: usize) -> &[f64] {
        &self.coords[2 * self.dim * i + self.dim..2 * self.dim * (i + 1)]
    }
}

/// An 8-byte chunk as an array (`chunks_exact(8)` guarantees the length).
#[inline]
fn word(bytes: &[u8]) -> [u8; 8] {
    let mut w = [0u8; 8];
    w.copy_from_slice(bytes);
    w
}

/// Reusable state for [`PagedRTree::window_try_for_each`]: the descent
/// stack and a node decode buffer.
#[derive(Debug, Default)]
pub struct PagedWindowScratch {
    /// Pages still to visit, each with the level its node must have.
    stack: Vec<(PageId, u32)>,
    node: NodeBuf,
}

impl PagedWindowScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// `Rect::contains_point` against a raw coordinate slice.
#[inline]
fn rect_contains(rect: &Rect, p: &[f64]) -> bool {
    (0..p.len()).all(|i| rect.lo()[i] <= p[i] && p[i] <= rect.hi()[i])
}

/// `Rect::intersects` against raw corner slices.
#[inline]
fn rect_intersects(rect: &Rect, lo: &[f64], hi: &[f64]) -> bool {
    (0..lo.len()).all(|i| rect.lo()[i] <= hi[i] && lo[i] <= rect.hi()[i])
}

/// A read-only R\*-tree whose nodes live in pages behind a buffer pool.
pub struct PagedRTree<P: Pager> {
    pool: BufferPool<P>,
    root_page: PageId,
    dim: usize,
    height: u32,
    len: usize,
    config: RTreeConfig,
}

impl<P: Pager> PagedRTree<P> {
    /// Opens a tree previously written by [`crate::persist::save`],
    /// reading only the meta page eagerly.
    pub fn open(pool: BufferPool<P>, meta_page: PageId) -> Result<Self, PersistError> {
        let meta = Meta::decode(pool.read(meta_page)?.bytes())?;
        Ok(Self {
            pool,
            root_page: meta.root_page,
            dim: meta.dim,
            height: meta.height,
            len: meta.len,
            config: meta.config,
        })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The structural configuration recorded at save time.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// The buffer pool (its stats expose logical/physical I/O).
    pub fn pool(&self) -> &BufferPool<P> {
        &self.pool
    }

    /// The root node's page id (the traversal entry point for external
    /// drivers such as the paged BBS).
    pub fn root_page(&self) -> PageId {
        self.root_page
    }

    /// Decodes the node at `page` into `buf`, reusing its allocations.
    ///
    /// # Errors
    ///
    /// Returns an error when the page read fails or the page is
    /// malformed (an entry count that overruns the page included).
    pub fn read_node_into(&self, page: PageId, buf: &mut NodeBuf) -> Result<(), PersistError> {
        buf.decode(self.pool.read(page)?.bytes(), self.dim)
    }

    /// The level of the root node; a child of a level-`l` node sits at
    /// level `l − 1`, and leaves at level 0.
    #[must_use]
    pub fn root_level(&self) -> u32 {
        // `Meta::decode` rejects a zero height.
        self.height - 1
    }

    /// As [`PagedRTree::read_node_into`] for a node reached where a
    /// level-`level` node belongs. Every traversal descends through
    /// this, so a page graph that does not fall one level per step (a
    /// cycle included) stops with an error instead of looping.
    ///
    /// # Errors
    ///
    /// Returns an error when the page read fails, the page is
    /// malformed, the node's level is not `level`, or an entry is the
    /// wrong kind for that level (a child page in a leaf, an item in an
    /// inner node).
    pub fn read_node_at(
        &self,
        page: PageId,
        level: u32,
        buf: &mut NodeBuf,
    ) -> Result<(), PersistError> {
        self.read_node_into(page, buf)?;
        buf.check_place(page, level)
    }

    /// Calls `f` with the id and coordinates of every item inside
    /// `window` (boundary inclusive) until `f` breaks, returning the
    /// break value, or `None` when `f` saw every item. The descent is depth first, children visited in
    /// reverse entry order, and stops reading pages at the break.
    ///
    /// # Errors
    ///
    /// Returns an error when a page read fails or a page is malformed:
    /// an entry count that overruns its page, or a node whose level or
    /// entry kinds do not fit its place in the tree (which also stops a
    /// cyclic page graph).
    ///
    /// # Panics
    ///
    /// Panics when `window`'s dimensionality differs from the tree's.
    pub fn window_try_for_each<B>(
        &self,
        window: &Rect,
        scratch: &mut PagedWindowScratch,
        mut f: impl FnMut(ItemId, &[f64]) -> ControlFlow<B>,
    ) -> Result<Option<B>, PersistError> {
        assert_eq!(window.dim(), self.dim, "window dimensionality mismatch");
        wnrs_obs::record(wnrs_obs::Counter::WindowQueries);
        scratch.stack.clear();
        if self.is_empty() {
            return Ok(None);
        }
        scratch.stack.push((self.root_page, self.root_level()));
        while let Some((page, level)) = scratch.stack.pop() {
            self.read_node_at(page, level, &mut scratch.node)?;
            let node = &scratch.node;
            for i in 0..node.len() {
                if node.is_leaf() {
                    if rect_contains(window, node.lo(i)) {
                        if let ControlFlow::Break(b) = f(node.item_id(i), node.lo(i)) {
                            return Ok(Some(b));
                        }
                    }
                } else if rect_intersects(window, node.lo(i), node.hi(i)) {
                    scratch.stack.push((node.child_page(i), level - 1));
                }
            }
        }
        Ok(None)
    }

    /// All items inside `window` (boundary inclusive), streamed through
    /// the buffer pool.
    pub fn window(&self, window: &Rect) -> Result<Vec<(ItemId, Point)>, PersistError> {
        // lint:allow(hot_path_alloc) reason=one result buffer per window query, not per entry
        let mut out = Vec::new();
        self.window_try_for_each(window, &mut PagedWindowScratch::new(), |id, p| {
            out.push((id, Point::new(p)));
            ControlFlow::<()>::Continue(())
        })?;
        Ok(out)
    }

    /// Whether any item lies inside `window`.
    pub fn window_any(&self, window: &Rect) -> Result<bool, PersistError> {
        let found = self.window_try_for_each(window, &mut PagedWindowScratch::new(), |_, _| {
            ControlFlow::Break(())
        })?;
        Ok(found.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::bulk_load;
    use crate::persist::save;
    use std::sync::Arc;
    use wnrs_storage::MemPager;

    fn pts(n: usize) -> Vec<Point> {
        let mut state: u64 = 77;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        (0..n)
            .map(|_| Point::xy(next() * 100.0, next() * 100.0))
            .collect()
    }

    fn setup(n: usize, pool_pages: usize) -> (Vec<Point>, PagedRTree<MemPager>) {
        let points = pts(n);
        let tree = bulk_load(&points, RTreeConfig::paper_default(2));
        let pager = Arc::new(MemPager::paper_default());
        let meta = save(&tree, pager.as_ref()).expect("save");
        let pool = BufferPool::new(pager, pool_pages);
        let paged = PagedRTree::open(pool, meta).expect("open");
        (points, paged)
    }

    #[test]
    fn window_matches_scan_through_pages() {
        let (points, paged) = setup(2000, 64);
        assert_eq!(paged.len(), 2000);
        let windows = [
            Rect::new(Point::xy(10.0, 10.0), Point::xy(35.0, 70.0)),
            Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0)),
            Rect::degenerate(points[11].clone()),
        ];
        for w in &windows {
            let mut got: Vec<u32> = paged
                .window(w)
                .expect("query")
                .iter()
                .map(|(id, _)| id.0)
                .collect();
            got.sort_unstable();
            let mut want: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| w.contains_point(p))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(paged.window_any(w).expect("query"), !want.is_empty());
        }
    }

    #[test]
    fn buffer_pool_caches_hot_paths() {
        let (_, paged) = setup(5000, 256);
        let w = Rect::new(Point::xy(40.0, 40.0), Point::xy(45.0, 45.0));
        let _ = paged.window(&w).expect("cold");
        let cold_miss = paged.pool().stats().physical_reads();
        for _ in 0..10 {
            let _ = paged.window(&w).expect("warm");
        }
        let warm_miss = paged.pool().stats().physical_reads();
        assert_eq!(
            cold_miss, warm_miss,
            "repeated identical query must be all hits"
        );
        assert!(paged.pool().stats().hit_rate().expect("reads") > 0.8);
    }

    #[test]
    fn bounded_memory_under_tiny_pool() {
        // A 4-page pool forces eviction yet answers stay exact.
        let (points, paged) = setup(3000, 4);
        let w = Rect::new(Point::xy(0.0, 0.0), Point::xy(100.0, 100.0));
        let got = paged.window(&w).expect("full scan");
        assert_eq!(got.len(), points.len());
        assert!(paged.pool().resident() <= 4);
    }

    #[test]
    fn bad_meta_rejected() {
        let pager = Arc::new(MemPager::paper_default());
        let id = pager.allocate();
        let pool = BufferPool::new(pager, 8);
        assert!(PagedRTree::open(pool, id).is_err());
    }

    /// A saved 2-d tree of `n` points: its pager, meta page and root
    /// page.
    fn saved(n: usize) -> (Arc<MemPager>, PageId, PageId) {
        let tree = bulk_load(&pts(n), RTreeConfig::paper_default(2));
        let pager = Arc::new(MemPager::paper_default());
        let meta = save(&tree, pager.as_ref()).expect("save");
        let pool = BufferPool::new(Arc::clone(&pager), 4);
        let root = PagedRTree::open(pool, meta).expect("open").root_page();
        (pager, meta, root)
    }

    /// Overwrites the bytes of `page` at `offset`.
    fn patch(pager: &MemPager, page: PageId, offset: usize, bytes: &[u8]) {
        let mut p = pager.read_page(page).expect("read");
        p.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        pager.write_page(page, &p).expect("write");
    }

    /// Both readers of a page store, the paged view and
    /// `persist::load`, reject it with a format error.
    fn assert_rejected(pager: &Arc<MemPager>, meta: PageId, what: &str) {
        let everything = Rect::new(Point::xy(-1e9, -1e9), Point::xy(1e9, 1e9));
        match PagedRTree::open(BufferPool::new(Arc::clone(pager), 4), meta) {
            Ok(paged) => assert!(
                matches!(paged.window(&everything), Err(PersistError::Format(_))),
                "{what}: window"
            ),
            Err(e) => assert!(matches!(e, PersistError::Format(_)), "{what}: open: {e}"),
        }
        assert!(
            matches!(
                crate::persist::load(pager.as_ref(), meta),
                Err(PersistError::Format(_))
            ),
            "{what}: load"
        );
    }

    #[test]
    fn hostile_entry_counts_are_format_errors() {
        // 38 entries of 40 bytes fill a 1536-byte page.
        for count in [39, 1 << 20, u32::MAX] {
            let (pager, meta, root) = saved(2000);
            patch(&pager, root, 4, &count.to_le_bytes());
            assert_rejected(&pager, meta, &format!("count {count}"));
        }
    }

    #[test]
    fn oversized_height_is_a_format_error() {
        let (pager, meta, _) = saved(100);
        patch(&pager, meta, 12, &u32::MAX.to_le_bytes());
        assert_rejected(&pager, meta, "height");
    }

    #[test]
    fn oversized_dim_is_a_format_error() {
        // 95 dimensions are the most a 1536-byte page holds one entry of.
        for dim in [96, u32::MAX] {
            let (pager, meta, _) = saved(100);
            patch(&pager, meta, 8, &dim.to_le_bytes());
            assert_rejected(&pager, meta, &format!("dim {dim}"));
        }
    }

    #[test]
    fn truncated_node_pages_are_format_errors() {
        let (pager, _, root) = saved(2000);
        let page = pager.read_page(root).expect("read");
        let mut node = NodeBuf::new();
        node.decode(page.bytes(), 2).expect("intact page");
        let used = NODE_HEADER_BYTES + node.len() * entry_bytes(2);
        for cut in 0..used {
            assert!(
                matches!(
                    node.decode(&page.bytes()[..cut], 2),
                    Err(PersistError::Format(_))
                ),
                "page cut to {cut} of {used} bytes"
            );
        }
    }

    #[test]
    fn wrong_kind_entry_is_a_format_error() {
        let (pager, meta, root) = saved(2000);
        // Retag the root's last entry as an item: an item in an inner node.
        let page = pager.read_page(root).expect("read");
        let mut node = NodeBuf::new();
        node.decode(page.bytes(), 2).expect("intact page");
        assert!(!node.is_leaf(), "2000 points need an inner root");
        let last = NODE_HEADER_BYTES + (node.len() - 1) * entry_bytes(2);
        patch(&pager, root, last, &(ITEM_TAG | 5).to_le_bytes());
        assert_rejected(&pager, meta, "item in an inner node");
        let paged = PagedRTree::open(BufferPool::new(pager, 4), meta).expect("open");
        let mut buf = NodeBuf::new();
        assert!(matches!(
            paged.read_node_at(root, paged.root_level(), &mut buf),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn cyclic_page_graph_is_a_format_error() {
        let (pager, meta, root) = saved(2000);
        // The root's last entry is descended first: point it at the root.
        let page = pager.read_page(root).expect("read");
        let mut node = NodeBuf::new();
        node.decode(page.bytes(), 2).expect("intact page");
        assert!(!node.is_leaf(), "2000 points need an inner root");
        let last = NODE_HEADER_BYTES + (node.len() - 1) * entry_bytes(2);
        patch(&pager, root, last, &root.0.to_le_bytes());
        assert_rejected(&pager, meta, "cycle");
    }
}
