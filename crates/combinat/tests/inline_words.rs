//! Pins the allocation cost of cloning test lists: a one-word
//! `ChannelVec` keeps its word inline, so cloning a list of them
//! allocates only the list, while a vector past 64 lines owns one boxed
//! word slice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sortnet_combinat::ChannelVec;

struct CountingAlloc;

thread_local! {
    // Per thread, so the test harness and concurrently running tests
    // do not count into each other's windows.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while cloning `list`.
fn clone_allocations(list: Vec<ChannelVec>) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let copy = std::hint::black_box(list.clone());
    let after = ALLOCATIONS.with(Cell::get);
    drop(copy);
    after - before
}

#[test]
fn cloning_one_word_vectors_allocates_only_the_list() {
    let list: Vec<ChannelVec> = (0..1000)
        .map(|i| ChannelVec::from_words(&[i as u64], 64))
        .collect();
    assert_eq!(clone_allocations(list), 1);
}

#[test]
fn cloning_vectors_past_64_lines_allocates_one_slice_each() {
    let list: Vec<ChannelVec> = (0..1000)
        .map(|i| ChannelVec::from_words(&[i as u64, 1], 65))
        .collect();
    assert_eq!(clone_allocations(list), 1001);
}
