package main

// Host speed. On the shared 2-vCPU host the benchmark was built on, the
// same op ran 20-40% slower for minutes to hours at a time, in CPU time
// as much as in wall time, so two sets of runs taken an hour apart
// disagreed by more than any useful regression bound. Each run therefore
// times a fixed reference kernel while nothing else of the run executes
// (before its first set-up and after its measurement, and in the batch
// workloads after each set-up and op, once the collector has run) and
// reports every time metric at the speed at which the kernel takes
// referenceKernelMs:
//
//	reported = measured × referenceKernelMs / median(kernel times)
//
// Between two sets of ten runs per workload taken an hour apart, in
// which the host sped up by about a fifth, the workloads' medians moved
// by 12-21% as measured and by 2-7% as reported. The kernel mixes the
// kinds of work the program does (sorting, dependent loads from a table
// larger than the cache, hashing, decimal scanning, string interning)
// and must never change: its time is the unit the benchmark's times are
// expressed in.

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// referenceKernelMs is the kernel's median time on the host the
// baseline was recorded on; reported times are in that host's
// milliseconds.
const referenceKernelMs = 50

// hostSpeed holds one run's kernel input and the kernel's times.
type hostSpeed struct {
	in *kernelInput
	ms []float64
}

func newHostSpeed() *hostSpeed { return &hostSpeed{in: newKernelInput()} }

// edgeSamples is how many times a run times the kernel before its first
// set-up and after its measurement. One time strays by up to 20% from
// the next, and the serving workloads have no other moment when nothing
// else runs: after a set-up the daemon may still be collecting.
const edgeSamples = 8

// sample times the kernel once.
func (h *hostSpeed) sample() {
	start := time.Now()
	h.in.kernel()
	h.ms = append(h.ms, ms(time.Since(start)))
}

func (h *hostSpeed) sampleN(n int) {
	for i := 0; i < n; i++ {
		h.sample()
	}
}

// factor is what measured times are multiplied by.
func (h *hostSpeed) factor() float64 { return referenceKernelMs / median(h.ms) }

// kernelInput is the kernel's fixed input, about 11 MB.
type kernelInput struct {
	keys, sorted []uint64
	table        []uint64
	bytes        []byte
	digits       []byte
	labels       []string
}

func newKernelInput() *kernelInput {
	rng := rand.New(rand.NewSource(42))
	in := &kernelInput{
		keys: make([]uint64, 1<<17), sorted: make([]uint64, 1<<17),
		table: make([]uint64, 1<<20), bytes: make([]byte, 1<<20),
	}
	for i := range in.keys {
		in.keys[i] = rng.Uint64()
	}
	for i := range in.table {
		in.table[i] = rng.Uint64()
	}
	rng.Read(in.bytes)
	for i := 0; i < 1<<17; i++ {
		in.digits = strconv.AppendInt(in.digits, rng.Int63n(1<<30), 10)
		in.digits = append(in.digits, ',')
	}
	for i := 0; i < 1<<15; i++ {
		in.labels = append(in.labels, strconv.Itoa(rng.Intn(5000)))
	}
	return in
}

// kernelSink keeps the kernel's results alive.
var kernelSink uint64

func (in *kernelInput) kernel() {
	copy(in.sorted, in.keys)
	slices.Sort(in.sorted)
	idx := uint64(1)
	for i := 0; i < 1<<17; i++ {
		idx = in.table[idx&uint64(len(in.table)-1)] ^ uint64(i)
	}
	var digest [sha256.Size]byte
	for i := 0; i < 8; i++ {
		digest = sha256.Sum256(in.bytes)
	}
	var acc, v uint64
	for pass := 0; pass < 2; pass++ {
		for _, c := range in.digits {
			if c == ',' {
				acc, v = acc+v, 0
				continue
			}
			v = v*10 + uint64(c-'0')
		}
	}
	ids := make(map[string]int32)
	for _, l := range in.labels {
		if _, ok := ids[l]; !ok {
			ids[l] = int32(len(ids))
		}
	}
	kernelSink += in.sorted[0] + idx + uint64(digest[0]) + acc + uint64(len(ids))
}
