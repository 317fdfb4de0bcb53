//go:build unix

package main

import (
	"syscall"
	"unsafe"
)

// allocSpans returns an empty span slice of the given capacity in memory
// mapped outside the Go heap, and the function that unmaps it. Where the
// mapping fails the slice comes from the heap.
func allocSpans(capacity int) ([]span, func()) {
	size := capacity * int(unsafe.Sizeof(span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]span, 0, capacity), func() {}
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 0 // fault the pages in now, not inside the timed loop
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity)[:0]
	return spans, func() { _ = syscall.Munmap(mem) } // the run is over: nothing to do about a failed unmap
}
