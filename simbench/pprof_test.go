package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) key(num, wire int) { p.b = binary.AppendUvarint(p.b, uint64(num<<3|wire)) }

func (p *pb) varint(num int, v uint64) *pb {
	p.key(num, wireVarint)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.key(num, wireBytes)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) msg(num int, m *pb) *pb { return p.bytes(num, m.b) }

func (p *pb) packed(num int, vs ...uint64) *pb {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return p.bytes(num, b)
}

// syntheticProfile encodes two samples over three locations. Location 2
// holds an inlined call (two lines), the first sample's ids are packed
// and the second's are not, and a fixed64 field that the reader skips
// sits in the middle.
func syntheticProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"ecgrid/internal/ras.(*Bus).PageGrid", "ecgrid/internal/node.(*Host).Position",
		"runtime.mapaccess2", "ecgrid/internal/core.(*Protocol).onTimer"}
	p := &pb{}
	p.msg(1, (&pb{}).varint(1, 1).varint(2, 2))
	p.msg(1, (&pb{}).varint(1, 3).varint(2, 4))
	p.msg(2, (&pb{}).packed(1, 1, 2, 3).packed(2, 1, 4000000))
	p.key(9, wire64)
	p.b = binary.LittleEndian.AppendUint64(p.b, 12345)
	p.msg(2, (&pb{}).varint(1, 2).varint(1, 3).varint(2, 2).varint(2, 8000000))
	p.msg(4, (&pb{}).varint(1, 1).msg(4, (&pb{}).varint(1, 3).varint(2, 10)))
	// Location 2: Position inlined into PageGrid.
	p.msg(4, (&pb{}).varint(1, 2).msg(4, (&pb{}).varint(1, 2)).msg(4, (&pb{}).varint(1, 1)))
	p.msg(4, (&pb{}).varint(1, 3).msg(4, (&pb{}).varint(1, 4)))
	for id, name := range []int{5, 6, 7, 8} {
		p.msg(5, (&pb{}).varint(1, uint64(id+1)).varint(2, uint64(name)))
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	return p.b
}

func TestParseProfileSynthetic(t *testing.T) {
	raw := syntheticProfile()
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
		p, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := []string{"samples/count", "cpu/nanoseconds"}; !reflect.DeepEqual(p.SampleTypes, want) {
			t.Fatalf("%s: sample types %v, want %v", name, p.SampleTypes, want)
		}
		want := []sample{
			{Stack: []string{"runtime.mapaccess2", "ecgrid/internal/node.(*Host).Position",
				"ecgrid/internal/ras.(*Bus).PageGrid", "ecgrid/internal/core.(*Protocol).onTimer"},
				Values: []int64{1, 4000000}},
			{Stack: []string{"ecgrid/internal/node.(*Host).Position", "ecgrid/internal/ras.(*Bus).PageGrid",
				"ecgrid/internal/core.(*Protocol).onTimer"},
				Values: []int64{2, 8000000}},
		}
		if !reflect.DeepEqual(p.Samples, want) {
			t.Fatalf("%s: samples\n%v\nwant\n%v", name, p.Samples, want)
		}
	}
}

func TestParseProfileRejectsMalformed(t *testing.T) {
	raw := syntheticProfile()
	for _, n := range []int{1, len(raw) / 2, len(raw) - 1} {
		if _, err := parseProfile(raw[:n]); err == nil {
			t.Errorf("truncated to %d bytes: no error", n)
		}
	}
	bad := (&pb{}).msg(2, (&pb{}).packed(1, 99).packed(2, 1)).b
	if _, err := parseProfile(bad); err == nil {
		t.Error("sample with an unknown location: no error")
	}
}

//go:noinline
func burnCPU(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParseProfileFromRuntime reads a profile the Go runtime wrote.
func TestParseProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burnCPU(400 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := p.valueIndex("samples/count")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.valueIndex("cpu/nanoseconds"); err != nil {
		t.Fatal(err)
	}
	var total, inBurn int64
	for _, s := range p.Samples {
		total += s.Values[cnt]
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".burnCPU") {
				inBurn += s.Values[cnt]
				break
			}
		}
	}
	if total == 0 || inBurn*2 < total {
		t.Fatalf("%d of %d samples in burnCPU, want most", inBurn, total)
	}
}
