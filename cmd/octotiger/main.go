// Command octotiger runs the §5 application benchmark (the Octo-Tiger
// proxy) once and prints steps per second.
//
// Example:
//
//	octotiger -config lci -platform expanse -nodes 8 -level 3 -steps 3
//
// Profile a longer run (the CPU profile carries the lane labels of
// cmd/msgrate: go tool pprof -tagfocus=lane=amt-worker ...):
//
//	octotiger -nodes 4 -steps 500 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hpxgo/internal/bench"
	"hpxgo/internal/core"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the profiles are written on every path.
func run() int {
	config := flag.String("config", "lci", "parcelport configuration (Table 1 name)")
	platform := flag.String("platform", "expanse", "platform profile: expanse or rostam")
	nodes := flag.Int("nodes", 4, "number of simulated compute nodes")
	level := flag.Int("level", 3, "maximum octree level")
	steps := flag.Int("steps", 3, "stop step (iteration count)")
	subgrid := flag.Int("subgrid", 6, "subgrid edge length per leaf")
	fields := flag.Int("fields", 4, "hydro fields per boundary exchange")
	stats := flag.Bool("stats", false, "print runtime performance counters after the run")
	regrid := flag.Int("regrid", 0, "adaptively regrid every N steps (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	var plat bench.Platform
	switch *platform {
	case "expanse":
		plat = bench.Expanse
	case "rostam":
		plat = bench.Rostam
	default:
		fmt.Fprintf(os.Stderr, "octotiger: unknown platform %q\n", *platform)
		return 2
	}
	if *cpuprofile != "" {
		// Label the progress / amt-worker / inline-deliver / task lanes so the
		// profile splits by goroutine role (go tool pprof -tagfocus=lane=...).
		core.EnableProfilingLabels(true)
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "octotiger: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "octotiger: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}

	params := bench.OctoParams{
		Platform: plat, Nodes: *nodes, Level: *level, Steps: *steps,
		Subgrid: *subgrid, Fields: *fields, RegridEvery: *regrid,
	}
	if *stats {
		params.Inspect = func(rt *core.Runtime) { fmt.Print(rt.StatsText()) }
	}
	sps, err := bench.OctoTiger(*config, params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "octotiger: %v\n", err)
		return 1
	}
	fmt.Printf("config=%s platform=%s nodes=%d level=%d steps_per_second=%.4f\n",
		*config, plat.Name, *nodes, *level, sps)
	return 0
}

// writeHeapProfile dumps the heap profile to path; its alloc_space and
// alloc_objects views attribute the run's allocations by call site.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "octotiger: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // settle live-heap statistics before the dump
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "octotiger: %v\n", err)
	}
}
