// Package emu is a fixture: a transitive layering violation (emu ->
// memsys -> core) plus every AST-level hotpath violation.
package emu

import (
	"fmt"

	"violations/internal/memsys" // layer-forbid for core (transitive), direct for memsys
)

// Wakes is a placeholder making the import load-bearing.
func Wakes() uint64 { return memsys.Occupancy() }

// Drain is a declared hot path stuffed with allocation-inducing
// constructs.
//
//ddvet:hotpath
func Drain(n int) string {
	buf := make([]uint64, n) // hotpath-alloc
	buf = append(buf, 1)     // hotpath-append
	f := func() uint64 {     // hotpath-closure
		return buf[0]
	}
	pairs := []int{int(f())}          // hotpath-alloc (slice literal)
	s := fmt.Sprintf("%d", pairs[0])  // hotpath-fmt
	s = s + "!"                       // hotpath-alloc (string concat)
	return string([]byte(s)) // hotpath-alloc x2 (conversions)
}
