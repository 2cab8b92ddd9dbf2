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

// repoLayers are this repository's packages on the measured paths.
var repoLayers = []string{
	"trace", "cpu", "cache", "hwprefetch", "addrmap", "memctrl", "fbdchan",
	"ddrbus", "ambcache", "dram", "resource", "system", "memtrace",
	"fidelity", "sample", "analytic", "sweep", "simserver", "fbdclient",
}

// layers are the buckets of the CPU profile: the repository's layers plus
// the Go runtime and the standard library's HTTP and JSON code that
// fbdserve spends time in. Samples whose leaf frame is anywhere else count
// only toward the total.
var layers = append(append([]string(nil), repoLayers...), "runtime", "http", "json")

// layerOf maps a profile function name such as
// "fbdsim/internal/ambcache.(*Cache).Lookup.func1" to its bucket:
// a layer name, or "" for code outside every layer. Closures and methods
// fold into their package.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: "pkg.F[...]"
	}
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "http"
	case pkg == "encoding/json":
		return "json"
	case strings.HasPrefix(pkg, "fbdsim/"):
		name := pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, l := range repoLayers {
			if l == name {
				return name
			}
		}
	}
	return ""
}

// selfShares decodes a gzipped pprof CPU profile and returns, per layer,
// the percentage of samples whose leaf frame lies in it (flat share).
func selfShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	var total int64
	byLayer := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		loc := p.locs[s.locs[0]]
		if len(loc) == 0 {
			continue
		}
		// The first line of a location is its innermost inlined frame.
		byLayer[layerOf(p.strings[p.funcs[loc[0]]])] += n
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// profileData is the subset of the pprof protobuf (profile.proto) the
// benchmark reads: samples with their location stacks and counts,
// locations as function-id lists, functions as name string indexes.
type profileData struct {
	samples []profileSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name index into strings
	strings []string
}

type profileSample struct {
	locs   []uint64
	values []int64
}

// Field numbers from profile.proto.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := walkFields(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case fieldProfileSample:
			var s profileSample
			err := walkFields(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fieldSampleLocation:
					return appendVarints(&s.locs, w, v, m)
				case fieldSampleValue:
					var u []uint64
					if err := appendVarints(&u, w, v, m); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return walkFields(m, func(f, w int, v uint64, _ []byte) error {
						if f == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := walkFields(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case fieldProfileStrings:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.funcs {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name index out of range")
		}
	}
	return p, nil
}

// appendVarints appends one varint field value, or a packed run of them.
func appendVarints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// walkFields calls fn for each field of one protobuf message: v holds a
// varint or fixed value, msg the bytes of a length-delimited field.
func walkFields(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
