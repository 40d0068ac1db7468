// Package examples holds runnable walk-throughs of the simulator. Each
// is an Example that ends with the output it prints, and go test fails
// when a run prints anything else:
//
//	go test ./examples                          # all three
//	go test ./examples -run Example_quickstart  # five binaries of one hard hammock
//	go test ./examples -run Example_loopexit    # wish loops: early/late/no-exit
//	go test ./examples -run Example_complexcfg  # Figure 6 region + the Table 1 cascade
package examples

import (
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/emu"
	"wishbranch/internal/prog"
)

// simulate runs p to completion on machine m over the memory image
// init writes (nil = empty) and returns the result with the simulator,
// whose architectural state the examples check. A simulator error
// panics, which go test reports as the example failing.
func simulate(m *config.Machine, p *prog.Program, init func(*emu.Memory)) (*cpu.Result, *cpu.CPU) {
	c, err := cpu.New(m, p, init)
	if err != nil {
		panic(err)
	}
	res, err := c.Run(0)
	if err != nil {
		panic(err)
	}
	return res, c
}
