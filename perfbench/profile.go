package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// Host time by module: runtime/pprof CPU samples are attributed to a
// host.* bucket by the package of the leaf frame. Runtime frames that
// mark allocation, garbage collection or scheduling claim the sample
// for alloc, gc or sched; any other frame outside the table below
// (runtime.memmove, sort, encoding/binary, ...) passes the sample up
// to its caller, so a copy inside internal/os counts as os.

// packageBuckets maps import-path subtrees to buckets. Matching
// respects path boundaries, so "sanctorum/internal/sm" does not claim
// smcall; a new package under internal/ matches nothing until it is
// listed (TestEveryInternalPackageHasABucket).
var packageBuckets = []struct{ prefix, bucket string }{
	{"sanctorum/internal/fleet", "fleet"},
	{"sanctorum/internal/os", "os"},
	{"sanctorum/internal/adversary", "os"},
	{"sanctorum/internal/smcall", "smcall"},
	{"sanctorum/internal/sm", "sm"},
	{"sanctorum/internal/platform", "sm"},
	{"sanctorum/internal/mc", "sm"},
	{"sanctorum/internal/hw/machine", "engine"},
	{"sanctorum/internal/isa", "engine"},
	{"sanctorum/internal/asm", "engine"},
	{"sanctorum/internal/enclaves", "engine"},
	{"sanctorum/internal/hw", "memsys"},
	{"sanctorum/internal/telemetry", "telemetry"},
	{"sanctorum/internal/crypto", "crypto"},
	{"sanctorum/internal/attest", "crypto"},
	{"crypto", "crypto"},
	{"runtime/pprof", "loadgen"},
}

// exactBuckets maps single packages.
var exactBuckets = map[string]string{
	"sanctorum":           "os", // the facade forwards to the OS model
	"main":                "loadgen",
	"sanctorum/perfbench": "loadgen", // this package, as its tests see it
}

// runtimeBuckets are the runtime functions that claim a sample
// wherever they appear on its stack, leaf first.
var runtimeBuckets = map[string]string{
	"runtime.gcBgMarkWorker": "gc",
	"runtime.gcAssistAlloc":  "gc",
	"runtime.gcDrain":        "gc",
	"runtime.gcStart":        "gc",
	"runtime.bgsweep":        "gc",
	"runtime.bgscavenge":     "gc",
	"runtime.sweepone":       "gc",
	"runtime.wbBufFlush":     "gc",
	"runtime._GC":            "gc",
	"runtime.mallocgc":       "alloc",
	"runtime.schedule":       "sched",
	"runtime.findRunnable":   "sched",
	"runtime.park_m":         "sched",
	"runtime.sysmon":         "sched",
	"runtime.mstart":         "sched",
	"runtime._System":        "sched",
}

// funcPackage returns the import path of a Go symbol such as
// "sanctorum/internal/hw/machine.(*Core).Step" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation arguments
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// packageBucket returns the bucket an import path belongs to, "" when
// none claims it.
func packageBucket(pkg string) string {
	if b, ok := exactBuckets[pkg]; ok {
		return b
	}
	for _, pb := range packageBuckets {
		if pkg == pb.prefix || strings.HasPrefix(pkg, pb.prefix+"/") {
			return pb.bucket
		}
	}
	return ""
}

// stackBucket attributes one sample's stack (leaf first).
func stackBucket(frames []string) string {
	for _, f := range frames {
		if b, ok := runtimeBuckets[f]; ok {
			return b
		}
		if strings.HasPrefix(f, "runtime.gcWriteBarrier") {
			return "gc"
		}
	}
	for _, f := range frames {
		if b := packageBucket(funcPackage(f)); b != "" {
			return b
		}
	}
	return "other"
}

// profileBuckets decodes a gzipped profile.proto CPU profile and
// returns the sample count per bucket and in total.
func profileBuckets(raw []byte) (map[string]int, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function → string-table index
		strs    []string
	)
	err = eachField(pb, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, data)
				case 2:
					s.vals = appendVarints(s.vals, wire, v, data)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
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
		case 5: // function
			var id, name uint64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int{}
	total := 0
	var frames []string
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		frames = frames[:0]
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		n := int(s.vals[0])
		counts[stackBucket(frames)] += n
		total += n
	}
	return counts, total, nil
}

var errProto = errors.New("perfbench: malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint/fixed value or length-delimited
// bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
