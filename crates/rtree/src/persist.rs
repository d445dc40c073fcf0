//! Persistence: one node per storage page.
//!
//! Serialises a tree into a [`Pager`] so fan-out really is bounded by the
//! page size, and loads it back. Layout:
//!
//! * **meta page** — magic, dim, height, len, root page id, config;
//! * **node pages** — header (`level: u32`, `count: u32`) followed by
//!   `count` entries of (`tagged child id: u64`, `lo`, `hi` coordinates).
//!   The high bit of the child id tags items (set) vs child nodes
//!   (clear); child nodes are referenced by their *page* id.

use crate::config::{entry_bytes, RTreeConfig, NODE_HEADER_BYTES};
use crate::node::{Child, Entry, Node, NodeId};
use crate::paged::NodeBuf;
use crate::tree::RTree;
use std::collections::HashMap;
use std::fmt;
use wnrs_geometry::{Point, Rect};
use wnrs_storage::{Decoder, Encoder, Page, PageId, Pager};

pub(crate) const MAGIC: u64 = 0x524E_5753_5254_5245; // "WNRS RTRE"
pub(crate) const ITEM_TAG: u64 = 1 << 63;
const MAX_HEIGHT: u32 = 64;

/// Persistence failure.
#[derive(Debug)]
pub enum PersistError {
    /// The page store failed.
    Pager(wnrs_storage::pager::PagerError),
    /// A node did not fit in a page, or a page was malformed.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Pager(e) => write!(f, "pager error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<wnrs_storage::pager::PagerError> for PersistError {
    fn from(e: wnrs_storage::pager::PagerError) -> Self {
        PersistError::Pager(e)
    }
}

impl From<wnrs_storage::codec::CodecError> for PersistError {
    fn from(e: wnrs_storage::codec::CodecError) -> Self {
        PersistError::Format(e.to_string())
    }
}

/// Writes `tree` to `pager`, returning the meta page id.
pub fn save<P: Pager>(tree: &RTree, pager: &P) -> Result<PageId, PersistError> {
    let dim = tree.dim();
    let need = NODE_HEADER_BYTES + tree.config().max_entries * entry_bytes(dim);
    if need > pager.page_size() {
        return Err(PersistError::Format(format!(
            "node needs {need} bytes but pages hold {}",
            pager.page_size()
        )));
    }

    // Assign a page to every reachable node (pre-order).
    let meta_page = pager.allocate();
    let mut page_of: HashMap<NodeId, PageId> = HashMap::new();
    let mut order = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let page = pager.allocate();
        page_of.insert(id, page);
        order.push(id);
        let node = tree.node(id);
        if !node.is_leaf() {
            for e in node.entries() {
                if let Child::Node(c) = e.child() {
                    stack.push(c);
                }
            }
        }
    }

    // Serialise the nodes.
    for id in order {
        let node = tree.node(id);
        let mut page = Page::zeroed(pager.page_size());
        {
            let mut enc = Encoder::new(page.bytes_mut());
            enc.put_u32(node.level())?;
            enc.put_u32(node.len() as u32)?;
            for e in node.entries() {
                let child = match e.child() {
                    Child::Item(item) => ITEM_TAG | item.0 as u64,
                    Child::Node(n) => page_of[&n].0,
                };
                enc.put_u64(child)?;
                for i in 0..dim {
                    enc.put_f64(e.rect().lo()[i])?;
                }
                for i in 0..dim {
                    enc.put_f64(e.rect().hi()[i])?;
                }
            }
        }
        pager.write_page(page_of[&id], &page)?;
    }

    // Meta page.
    let mut page = Page::zeroed(pager.page_size());
    {
        let mut enc = Encoder::new(page.bytes_mut());
        enc.put_u64(MAGIC)?;
        enc.put_u32(dim as u32)?;
        enc.put_u32(tree.height())?;
        enc.put_u64(tree.len() as u64)?;
        enc.put_u64(page_of[&tree.root()].0)?;
        enc.put_u32(tree.config().max_entries as u32)?;
        enc.put_u32(tree.config().min_entries as u32)?;
        enc.put_u32(tree.config().reinsert_count as u32)?;
    }
    pager.write_page(meta_page, &page)?;
    Ok(meta_page)
}

/// The decoded meta page.
pub(crate) struct Meta {
    pub(crate) dim: usize,
    pub(crate) height: u32,
    pub(crate) len: usize,
    pub(crate) root_page: PageId,
    pub(crate) config: RTreeConfig,
}

impl Meta {
    /// Decodes and validates a meta page. The dimensionality must leave
    /// room for at least one entry in a page of the same size, which
    /// bounds every per-entry buffer a reader sizes from it.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut dec = Decoder::new(bytes);
        if dec.get_u64()? != MAGIC {
            return Err(PersistError::Format("bad magic".into()));
        }
        let dim = dec.get_u32()? as usize;
        let height = dec.get_u32()?;
        let len = dec.get_u64()? as usize;
        let root_page = PageId(dec.get_u64()?);
        let config = RTreeConfig {
            max_entries: dec.get_u32()? as usize,
            min_entries: dec.get_u32()? as usize,
            reinsert_count: dec.get_u32()? as usize,
        };
        // Inner nodes hold at least two entries and item ids are `u32`,
        // so a real tree is at most 33 levels high; the cap bounds how
        // deep a reader descends.
        if dim == 0 || height == 0 || height > MAX_HEIGHT || !config.is_valid() {
            return Err(PersistError::Format("corrupt meta page".into()));
        }
        // An entry is an 8-byte id plus 16 bytes per dimension.
        let max_dim = bytes
            .len()
            .saturating_sub(NODE_HEADER_BYTES + entry_bytes(0))
            / 16;
        if dim > max_dim {
            return Err(PersistError::Format(format!(
                "{dim}-d entries do not fit a {}-byte page",
                bytes.len()
            )));
        }
        Ok(Self {
            dim,
            height,
            len,
            root_page,
            config,
        })
    }
}

/// Loads a tree previously written by [`save`].
pub fn load<P: Pager>(pager: &P, meta_page: PageId) -> Result<RTree, PersistError> {
    let meta = Meta::decode(pager.read_page(meta_page)?.bytes())?;
    let mut tree = RTree::new(meta.dim, meta.config);
    tree.nodes.clear();
    let mut node_of: HashMap<PageId, NodeId> = HashMap::new();
    let root = load_node(
        pager,
        meta.root_page,
        meta.height - 1,
        meta.dim,
        &mut tree,
        &mut node_of,
    )?;
    tree.set_bulk_state(root, meta.height, meta.len);
    Ok(tree)
}

/// Loads the node at `page_id`, which must sit at `level`: levels fall
/// by one per step down, so a cyclic page graph ends in an error rather
/// than unbounded recursion.
fn load_node<P: Pager>(
    pager: &P,
    page_id: PageId,
    level: u32,
    dim: usize,
    tree: &mut RTree,
    node_of: &mut HashMap<PageId, NodeId>,
) -> Result<NodeId, PersistError> {
    let mut buf = NodeBuf::new();
    buf.decode(pager.read_page(page_id)?.bytes(), dim)?;
    buf.check_place(page_id, level)?;
    let mut entries = Vec::with_capacity(buf.len());
    for i in 0..buf.len() {
        let lo = finite_point(buf.lo(i))?;
        if buf.is_leaf() {
            entries.push(Entry::item(buf.item_id(i), lo));
        } else {
            let hi = finite_point(buf.hi(i))?;
            if (0..dim).any(|d| lo[d] > hi[d]) {
                return Err(PersistError::Format(format!(
                    "{page_id}: entry {i} has lo above hi"
                )));
            }
            let child_page = buf.child_page(i);
            let child_node = match node_of.get(&child_page) {
                Some(&n) => n,
                None => load_node(pager, child_page, level - 1, dim, tree, node_of)?,
            };
            entries.push(Entry::node(Rect::new(lo, hi), child_node));
        }
    }
    tree.nodes.push(Node::with_entries(level, entries));
    let id = NodeId(tree.nodes.len() as u32 - 1);
    node_of.insert(page_id, id);
    Ok(id)
}

/// A stored corner as a [`Point`]. `Point::new` panics on a non-finite
/// coordinate, so one is reported here as a malformed page.
fn finite_point(coords: &[f64]) -> Result<Point, PersistError> {
    if coords.iter().all(|c| c.is_finite()) {
        Ok(Point::new(coords))
    } else {
        Err(PersistError::Format("non-finite coordinate".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::bulk_load;
    use crate::node::ItemId;
    use crate::validate::check_structure;
    use wnrs_storage::MemPager;

    fn pts(n: usize) -> Vec<Point> {
        let mut state: u64 = 3;
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

    #[test]
    fn save_load_round_trip() {
        let points = pts(1000);
        let tree = bulk_load(&points, RTreeConfig::paper_default(2));
        let pager = MemPager::paper_default();
        let meta = save(&tree, &pager).expect("save");
        let loaded = load(&pager, meta).expect("load");
        assert_eq!(loaded.len(), tree.len());
        assert_eq!(loaded.height(), tree.height());
        check_structure(&loaded).expect("loaded tree valid");
        // Query equivalence.
        let w = Rect::new(Point::xy(20.0, 20.0), Point::xy(60.0, 80.0));
        let mut a: Vec<u32> = tree.window(&w).iter().map(|(id, _)| id.0).collect();
        let mut b: Vec<u32> = loaded.window(&w).iter().map(|(id, _)| id.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn page_count_reflects_node_count() {
        let points = pts(500);
        let tree = bulk_load(&points, RTreeConfig::paper_default(2));
        let pager = MemPager::paper_default();
        let _ = save(&tree, &pager).expect("save");
        assert_eq!(
            pager.page_count() as usize,
            tree.node_count() + 1,
            "nodes + meta"
        );
    }

    #[test]
    fn oversized_node_rejected() {
        let points = pts(100);
        // Fanout 64 needs 8 + 64·40 bytes > 1536.
        let tree = bulk_load(&points, RTreeConfig::with_max_entries(64));
        let pager = MemPager::paper_default();
        assert!(matches!(save(&tree, &pager), Err(PersistError::Format(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let pager = MemPager::paper_default();
        let id = pager.allocate();
        assert!(matches!(load(&pager, id), Err(PersistError::Format(_))));
    }

    #[test]
    fn single_point_round_trip() {
        let tree = bulk_load(&[Point::xy(3.5, 4.5)], RTreeConfig::paper_default(2));
        let pager = MemPager::paper_default();
        let meta = save(&tree, &pager).expect("save");
        let loaded = load(&pager, meta).expect("load");
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains(ItemId(0), &Point::xy(3.5, 4.5)));
    }
}
