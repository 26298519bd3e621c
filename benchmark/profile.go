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

// This file decodes the subset of the pprof profile.proto format that a
// Go CPU profile uses, so the benchmark can split CPU time by package
// without depending on anything outside the standard library.

// modulePrefix marks the frames that belong to a pipeline layer.
const modulePrefix = "teva/internal/"

// unattributed collects samples with no teva/internal frame on the stack:
// GC background workers, the scheduler and the benchmark's own code.
const unattributed = "unattributed"

// layerOf returns the teva/internal package of a function name
// ("teva/internal/timingsim.(*WideFastSim).Run" -> "timingsim"), or ""
// for a frame outside the pipeline.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// selfCPUByLayer charges each sample's CPU seconds to the innermost
// teva/internal frame of its stack, so runtime frames (allocation,
// zeroing, GC assist) count against the pipeline code that caused them.
func selfCPUByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
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
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			continue
		}
		out[p.layerOfStack(s.locations)] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> string-table index of its name
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) layerOfStack(locs []uint64) string {
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			if layer := layerOf(p.str(p.functions[fn])); layer != "" {
				return layer
			}
		}
	}
	return unattributed
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSampleType:
			return eachField(data, func(num int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return repeated(v, data, func(x uint64) { s.locations = append(s.locations, x) })
				case fSampleValue:
					return repeated(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with the varint value
// (wire types 0, 1 and 5) or the payload (wire type 2) of every field.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			if size == 8 {
				v = binary.LittleEndian.Uint64(b)
			} else {
				v = uint64(binary.LittleEndian.Uint32(b))
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one value
// per field (data nil) or packed into a payload.
func repeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint; n is 0 when b is truncated.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return v, n
}
