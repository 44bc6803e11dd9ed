package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// hostPackages are the groups CPU profile samples are attributed to, by
// the package of the sampled leaf function. "other" takes the rest: the
// benchmark itself, sync, time and the standard library.
var hostPackages = []string{"uvm", "pmap", "phys", "swap", "disk", "vfs", "sim", "runtime", "other"}

// pkgGroup returns the hostPackages entry a function belongs to.
func pkgGroup(fn string) string {
	// The package path ends at the first '.' after the last '/'.
	path := fn
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		if j := strings.IndexByte(path[i:], '.'); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.IndexByte(path, '.'); j >= 0 {
		path = path[:j]
	}
	if rest, ok := strings.CutPrefix(path, "uvm/internal/"); ok {
		switch rest {
		case "uvm", "pmap", "phys", "swap", "disk", "vfs", "sim":
			return rest
		}
		return "other"
	}
	if path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileShares reads a CPU profile written by runtime/pprof and returns
// each package group's share of the sampled CPU time, attributed to the
// leaf (innermost, after inlining) function of each sample, plus the
// share of runtime.memclr* alone.
func profileShares(path string) (map[string]float64, float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	p, err := decodeProfile(pb)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	byGroup := make(map[string]float64, len(hostPackages))
	var total, memclr float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		name := p.leafName(s.locs[0])
		byGroup[pkgGroup(name)] += v
		if strings.HasPrefix(name, "runtime.memclr") {
			memclr += v
		}
		total += v
	}
	shares := make(map[string]float64, len(hostPackages))
	for _, g := range hostPackages {
		shares[g] = ratio(byGroup[g], total)
	}
	return shares, ratio(memclr, total), nil
}

// profile is the part of the profile.proto message the shares need.
type profile struct {
	samples  []profSample
	locFunc  map[uint64]uint64 // location id -> leaf function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) leafName(loc uint64) string {
	i := p.funcName[p.locFunc[loc]]
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d, func(x uint64) uint64 { return x })
				case 2:
					return appendVarints(&s.values, w, v, d, func(x uint64) int64 { return int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id, fn uint64
			seenLine := false
			err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seenLine: // the first line is the innermost inlined function
					seenLine = true
					return eachField(d, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringField:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errBadProto = errors.New("malformed profile protobuf")

// eachField calls fn for each field of a protobuf message: v holds a
// varint or fixed value, data a length-delimited payload.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints[T any](dst *[]T, wire int, v uint64, data []byte, conv func(uint64) T) error {
	if wire == 0 {
		*dst = append(*dst, conv(v))
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, conv(x))
		data = data[n:]
	}
	return nil
}
