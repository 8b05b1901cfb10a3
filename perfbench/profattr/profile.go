package profattr

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Sample is one stack of a CPU profile with its sample count.
type Sample struct {
	// Stack holds function names from the leaf outwards, inlined frames
	// expanded.
	Stack []string
	Count int64
}

// Profile is the part of a pprof profile attribution needs.
type Profile struct {
	Samples []Sample
}

// Parse decodes a gzip-compressed pprof profile as runtime/pprof writes
// it (profile.proto).
func Parse(data []byte) (*Profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profattr: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profattr: %w", err)
	}
	return parseRaw(raw)
}

type rawSample struct {
	locs   []uint64
	values []int64
}

// parseRaw decodes the uncompressed protobuf message.
func parseRaw(b []byte) (*Profile, error) {
	var (
		types    []int64 // sample_type type names, as string indexes
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]int64{}    // function id → string index
		strs     []string
	)
	err := fields(b, func(num int, wt int, v uint64, buf []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := fields(buf, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			types = append(types, typ)
			return err
		case 2: // sample
			var s rawSample
			err := fields(buf, func(n, wt int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, wt, v, p)
				case 2:
					var u []uint64
					if err := appendUints(&u, wt, v, p); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(buf, func(n, _ int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(buf, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	countIdx := 0
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "samples" {
			countIdx = i
		}
	}
	name := func(fid uint64) string {
		if si, ok := funcName[fid]; ok && si >= 0 && int(si) < len(strs) {
			return strs[si]
		}
		return "?"
	}
	p := &Profile{Samples: make([]Sample, 0, len(samples))}
	for _, s := range samples {
		if countIdx >= len(s.values) {
			return nil, errors.New("profattr: sample without a count")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				stack = append(stack, name(fid))
			}
		}
		p.Samples = append(p.Samples, Sample{Stack: stack, Count: s.values[countIdx]})
	}
	return p, nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wt int, v uint64, p []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("profattr: bad packed varint")
		}
		*dst = append(*dst, x)
		p = p[n:]
	}
	return nil
}

// fields walks the fields of one protobuf message, calling fn with each
// field's number and wire type, and its varint value or byte payload.
func fields(b []byte, fn func(num, wt int, v uint64, buf []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profattr: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var buf []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profattr: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profattr: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profattr: bad length")
			}
			buf, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profattr: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profattr: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, buf); err != nil {
			return err
		}
	}
	return nil
}
