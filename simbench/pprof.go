package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file reads the subset of the pprof profile.proto format that the
// attribution needs: sample values and stacks, locations with their
// inlined lines, and function names. It is a plain protobuf wire-format
// reader, so the benchmark needs no module outside the standard library.

// profile is a decoded CPU profile.
type profile struct {
	// SampleTypes names each entry of a sample's values, as "type/unit"
	// (a Go CPU profile has "samples/count" and "cpu/nanoseconds").
	SampleTypes []string
	Samples     []sample
}

// sample is one stack with its values. Stack holds function names, leaf
// first, with inlined calls expanded.
type sample struct {
	Stack  []string
	Values []int64
}

// valueIndex returns the index of the sample value of the given type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.SampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q values (has %v)", typ, p.SampleTypes)
}

// parseProfile decodes a profile, gzip-compressed as runtime/pprof
// writes it or uncompressed.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type valueType struct{ typ, unit int64 }
	var (
		strs      []string
		types     []valueType
		raws      []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t valueType
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					t.typ = int64(v)
				case 2:
					t.unit = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
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
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range types {
		typ, err := str(t.typ)
		if err != nil {
			return nil, err
		}
		unit, err := str(t.unit)
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, typ+"/"+unit)
	}
	for _, r := range raws {
		if len(r.values) != len(p.SampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(r.values), len(p.SampleTypes))
		}
		s := sample{Values: r.values}
		for _, loc := range r.locs {
			fns, ok := locLines[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
			for _, fn := range fns {
				idx, ok := funcNames[fn]
				if !ok {
					return nil, fmt.Errorf("profile: location %d references unknown function %d", loc, fn)
				}
				name, err := str(idx)
				if err != nil {
					return nil, err
				}
				s.Stack = append(s.Stack, name)
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField calls fn for each field of a protobuf message: v carries a
// varint or fixed-width value, b a length-delimited payload.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("field %d: bad varint", num)
			}
			msg = msg[n:]
		case wire64:
			if len(msg) < 8 {
				return fmt.Errorf("field %d: truncated fixed64", num)
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case wire32:
			if len(msg) < 4 {
				return fmt.Errorf("field %d: truncated fixed32", num)
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		case wireBytes:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return fmt.Errorf("field %d: bad length", num)
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("field %d: unsupported wire type %d", num, wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which the
// encoder may write one per field or packed into one payload.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	if wire != wireBytes {
		return fmt.Errorf("repeated varint with wire type %d", wire)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
