//! Counting-allocator bounds on encore's hot paths, one module each:
//! the windowed detector fold, streaming ingest, a shard's consuming
//! snapshot, and a warm visit. [`alloc_count`] tallies per thread, so the
//! four run side by side.

mod detector;
mod ingest;
mod snapshot;
mod visit;

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;
