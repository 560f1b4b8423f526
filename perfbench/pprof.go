package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The traced run splits CPU time by layer from the program's own CPU
// profiles (sweep -cpuprofile, temprivd /debug/pprof/profile). This is the
// small part of the profile.proto format that needs: samples with their
// location stacks and values, locations' function lines, function names
// and the string table.

// shares maps a layer to its fraction of the profile's CPU time.
type shares map[string]float64

// shareLayers are the layers CPU time is attributed to: a sample goes to
// the innermost frame from one of these packages (so helpers such as rng
// or metrics count for the layer calling them), or to "gc" when the
// garbage collector's workers or assists are on its stack.
var shareLayers = map[string]string{
	"sim": "sim", "buffer": "buffer", "core": "buffer", "network": "network", "adversary": "adversary",
}

func (s shares) covered() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func profileShares(path string) (shares, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeShares(f)
}

func decodeShares(r io.Reader) (shares, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sampleRec struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sampleRec
		locFns  = map[uint64][]uint64{} // location → function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function → string index
		strs    []string
	)
	err = walk(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sampleRec
			err := walk(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, data)
				case 2:
					vals := appendPacked(nil, v, data)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1]) // cpu nanoseconds
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walk(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := walk(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := shares{}
	var total float64
	for _, s := range samples {
		total += float64(s.value)
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		if layer := attribute(frames); layer != "" {
			out[layer] += float64(s.value)
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// attribute names the layer a stack (innermost frame first) belongs to.
func attribute(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") || strings.HasPrefix(f, "runtime.bgsweep") {
			return "gc"
		}
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "tempriv/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexByte(rest, '.'); i > 0 {
			if layer, ok := shareLayers[rest[:i]]; ok {
				return layer
			}
		}
	}
	return ""
}

// walk calls fn for every field of a protobuf message: v holds a varint
// or fixed value, data a length-delimited payload.
func walk(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either packed
// (data) or as one value (v).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
