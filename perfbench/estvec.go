package main

import (
	"fmt"
	"runtime"
	"time"

	"greensched/internal/estvec"
)

// minLoopTime is how long nsPerCall repeats its loop at least.
const minLoopTime = 50 * time.Millisecond

// nsPerCall repeats f, which makes calls calls, for at least
// minLoopTime and returns the time per call in ns.
func nsPerCall(calls int, f func() error) (float64, error) {
	rounds := 0
	start := time.Now()
	for rounds == 0 || time.Since(start) < minLoopTime {
		if err := f(); err != nil {
			return 0, err
		}
		rounds++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*calls), nil
}

// measureEstvec round-trips the vectors a traced run captured through
// the wire codec (Vector.GobEncode / GobDecode), after the run and off
// the request path: ns per encode and per decode, allocations per
// round trip, and encoded bytes per vector.
func measureEstvec(v map[string]float64, vecs []*estvec.Vector) error {
	if len(vecs) == 0 {
		return nil
	}
	encoded := make([][]byte, len(vecs))
	size := 0
	for i, vec := range vecs {
		b, err := vec.GobEncode()
		if err != nil {
			return fmt.Errorf("estvec encode: %w", err)
		}
		encoded[i] = b
		size += len(b)
	}
	var scratch estvec.Vector
	decodeAll := func() error {
		for _, b := range encoded {
			if err := scratch.GobDecode(b); err != nil {
				return fmt.Errorf("estvec decode: %w", err)
			}
		}
		return nil
	}
	encodeAll := func() error {
		for _, vec := range vecs {
			if _, err := vec.GobEncode(); err != nil {
				return fmt.Errorf("estvec encode: %w", err)
			}
		}
		return nil
	}
	var err error
	if v["estvec.encode_ns"], err = nsPerCall(len(vecs), encodeAll); err != nil {
		return err
	}
	if v["estvec.decode_ns"], err = nsPerCall(len(vecs), decodeAll); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := encodeAll(); err != nil {
		return err
	}
	if err := decodeAll(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	v["estvec.allocs_per_vector"] = float64(after.Mallocs-before.Mallocs) / float64(len(vecs))
	v["estvec.bytes_per_vector"] = float64(size) / float64(len(vecs))
	return nil
}
