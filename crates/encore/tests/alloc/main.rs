//! Counting-allocator bounds on encore's hot paths, one module each:
//! the windowed detector fold, streaming ingest, a shard's consuming
//! snapshot, a warm visit, and the hand-over of the open window's
//! tables. [`alloc_count`] tallies per thread, so the five run side by
//! side.

mod detector;
mod ingest;
mod snapshot;
mod visit;
mod window;

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;
