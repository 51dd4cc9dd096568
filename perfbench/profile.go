package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers lists the host-time buckets in report order. "other" takes every
// package no layer claims (net/http, encoding/json, syscall, the
// benchmark itself).
var layers = []string{"cache", "memctrl", "eventq", "sim", "workload", "runner", "model", "server", "runtime", "other"}

// layerOf maps a Go package path to its layer.
func layerOf(pkg string) string {
	switch pkg {
	case "repro/internal/cache":
		return "cache"
	case "repro/internal/memctrl":
		return "memctrl"
	case "repro/internal/eventq":
		return "eventq"
	case "repro/internal/sim", "repro/internal/machine", "repro/internal/interconnect":
		return "sim"
	case "repro/internal/workload", "repro/internal/trace":
		return "workload"
	case "repro/internal/experiments":
		return "runner"
	case "repro/internal/core", "repro/internal/model":
		return "model"
	case "repro/internal/server", "repro/internal/api":
		return "server"
	case "runtime":
		return "runtime"
	}
	if strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf returns the package path of a fully qualified Go symbol such
// as "repro/internal/cache.(*Cache).touch" or "runtime.mallocgc".
func packageOf(symbol string) string {
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return symbol
	}
	return symbol[:slash+1+dot]
}

// layerShares buckets the flat samples of a CPU profile (as written by
// runtime/pprof) by the layer of each sample's innermost function, and
// returns every layer's share of the sampled CPU time. The shares sum to 1.
func layerShares(profile []byte) (map[string]float64, error) {
	leaf, err := leafSamples(profile)
	if err != nil {
		return nil, err
	}
	var total int64
	byLayer := map[string]int64{}
	for fn, v := range leaf {
		byLayer[layerOf(packageOf(fn))] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// leafSamples decodes a gzipped profile.proto and sums each sample's last
// value (CPU nanoseconds for a CPU profile) by the name of the innermost
// function of its leaf location. It reads only the fields it needs.
func leafSamples(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string table index
		strtab    []string
		decodeErr error
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) {
		switch {
		case num == 2 && wire == 2: // Sample
			var locs []uint64
			var vals []uint64
			decodeErr = errors.Join(decodeErr, eachField(b, func(n, w int, v uint64, b []byte) {
				switch n {
				case 1:
					locs = appendPacked(locs, w, v, b)
				case 2:
					vals = appendPacked(vals, w, v, b)
				}
			}))
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], value: int64(vals[len(vals)-1])})
			}
		case num == 4 && wire == 2: // Location
			var id, fn uint64
			first := true
			decodeErr = errors.Join(decodeErr, eachField(b, func(n, w int, v uint64, b []byte) {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2 && first: // Line; the first is the innermost inlined call
					first = false
					decodeErr = errors.Join(decodeErr, eachField(b, func(n, w int, v uint64, _ []byte) {
						if n == 1 && w == 0 {
							fn = v
						}
					}))
				}
			}))
			locFunc[id] = fn
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, eachField(b, func(n, w int, v uint64, _ []byte) {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case num == 6 && wire == 2: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if idx := funcName[locFunc[s.leaf]]; idx > 0 && int(idx) < len(strtab) {
			name = strtab[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

// appendPacked appends one repeated integer field, which the encoder may
// write packed (wire type 2) or one value per field (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message, passing varints in v
// and length-delimited payloads in b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(num, wire, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			fn(num, wire, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
