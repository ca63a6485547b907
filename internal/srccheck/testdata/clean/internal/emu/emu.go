// Package emu is a fixture of hotpath patterns that must pass: clean
// bodies, reasoned allows, panic messages, and allocation in unannotated
// functions.
package emu

// Heap is a fixture slab.
type Heap struct {
	heap []uint64
}

// Push is a declared hot path whose append carries the amortization
// argument.
//
//ddvet:hotpath
func (h *Heap) Push(cycle uint64) {
	//ddvet:allow hotpath-append -- fixture: slab amortizes to zero steady-state growth
	h.heap = append(h.heap, cycle)
}

// Pop is a clean declared hot path; its panic message may box a constant
// string (terminal path, exempt from escape findings).
//
//ddvet:hotpath
func (h *Heap) Pop() uint64 {
	if len(h.heap) == 0 {
		panic("emu: pop of empty heap")
	}
	v := h.heap[0]
	h.heap = h.heap[:len(h.heap)-1]
	return v
}

// Grow allocates freely: it is not annotated, so the hotpath checker must
// ignore it.
func Grow(n int) []uint64 {
	return make([]uint64, n)
}
