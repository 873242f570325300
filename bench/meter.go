package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is a reading of the process's cumulative cost counters.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
}

// readUsage reads wall clock, process CPU time and the allocator's
// cumulative counters. runtime/metrics does not stop the world, so a
// reading per slice does not disturb the clients it measures.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: s[0].Value.Uint64() + s[1].Value.Uint64(),
		bytes:   s[2].Value.Uint64(),
	}
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// span of work between two usage readings: units transactions handled
// in wall seconds at the given process-wide cost.
type slice struct {
	wall    float64 // s
	cpuUS   float64
	mallocs float64
	bytes   float64
	units   float64
}

func (u usage) since(prev usage, units float64) slice {
	return slice{
		wall:    u.at.Sub(prev.at).Seconds(),
		cpuUS:   float64(u.cpu-prev.cpu) / float64(time.Microsecond),
		mallocs: float64(u.mallocs - prev.mallocs),
		bytes:   float64(u.bytes - prev.bytes),
		units:   units,
	}
}

// costs summarises slices of a measured section.
type costs struct {
	txnPerS      float64
	cpuUSPerTxn  float64
	allocsPerTxn float64
	bytesPerTxn  float64
}

// medianCosts reports each per-transaction cost as the median over
// slices, so a burst of interference inside one slice does not move it.
func medianCosts(ss []slice) costs {
	var tps, cpu, allocs, bytes []float64
	for _, s := range ss {
		if s.units == 0 || s.wall == 0 {
			continue
		}
		tps = append(tps, s.units/s.wall)
		cpu = append(cpu, s.cpuUS/s.units)
		allocs = append(allocs, s.mallocs/s.units)
		bytes = append(bytes, s.bytes/s.units)
	}
	return costs{median(tps), median(cpu), median(allocs), median(bytes)}
}
