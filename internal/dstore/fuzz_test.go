package dstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"deepflow/internal/trace"
)

// refImage is a second, naive block encoder, kept apart from marshalBlock
// on purpose: it builds the image part by part (header, one part per
// column, the row sections) and lets a test rewrite any part before the
// CRC is applied, which is how CRC-valid-but-malformed images are made.
func refImage(meta blockMeta, spans []*trace.Span, rewrite func(part string, b []byte) []byte) []byte {
	if rewrite == nil {
		rewrite = func(_ string, b []byte) []byte { return b }
	}
	img := rewrite("header", appendBlockHeader(nil, meta))
	for _, def := range spanIntCols {
		var col []byte
		prev := int64(0)
		for _, sp := range spans {
			v := def.get(sp)
			if meta.enc == EncDelta {
				col = binary.AppendVarint(col, v-prev)
				prev = v
			} else {
				col = binary.AppendVarint(col, v)
			}
		}
		img = append(img, rewrite(def.name, col)...)
	}
	for _, def := range spanStrCols {
		var col []byte
		if meta.enc == EncDirect {
			for _, sp := range spans {
				col = trace.AppendString(col, def.get(sp))
			}
		} else {
			var values []string
			var indexes []int
			for _, sp := range spans {
				at := -1
				for j, v := range values {
					if v == def.get(sp) {
						at = j
					}
				}
				if at < 0 {
					at = len(values)
					values = append(values, def.get(sp))
				}
				indexes = append(indexes, at)
			}
			col = lowCardColumn(values, indexes)
		}
		img = append(img, rewrite(def.name, col)...)
	}
	var rest []byte
	for _, sp := range spans {
		rest = trace.AppendCustom(rest, sp.Custom)
		rest = trace.AppendNetMetrics(rest, sp.Net)
	}
	img = append(img, rewrite("rest", rest)...)
	return appendBlockCRC(img)
}

// lowCardColumn serializes a dictionary column from explicit parts.
func lowCardColumn(values []string, indexes []int) []byte {
	col := binary.AppendUvarint(nil, uint64(len(values)))
	for _, v := range values {
		col = trace.AppendString(col, v)
	}
	for _, i := range indexes {
		col = binary.AppendUvarint(col, uint64(i))
	}
	return col
}

func TestRefImageAgreesWithMarshalBlock(t *testing.T) {
	spans, _, _ := testRows(9)
	minNS, maxNS := spanTimeRange(spans)
	for _, enc := range []BlockEncoding{EncDelta, EncDirect, EncLowCard} {
		meta := blockMeta{walFirst: 2, walLast: 5, nSpans: len(spans), minNS: minNS, maxNS: maxNS, enc: enc}
		if !bytes.Equal(refImage(meta, spans, nil), marshalBlock(2, 5, spans, nil, nil, enc)) {
			t.Fatalf("%s: the reference encoder and marshalBlock disagree", enc)
		}
	}
}

// TestMalformedImagesNeitherDecodeNorMerge builds images whose CRC is right
// and whose rows a lenient reader would accept, but which marshalBlock
// could not have written. Splicing such an image into a merge would
// produce a block that differs from the sealed concatenation (or that no
// longer decodes), so both paths must refuse every one of them.
func TestMalformedImagesNeitherDecodeNorMerge(t *testing.T) {
	two := []*trace.Span{testSpan(1), testSpan(2)}
	two[0].ProcessName, two[1].ProcessName = "a", "b"
	minNS, maxNS := spanTimeRange(two)
	good := blockMeta{walFirst: 1, walLast: 1, nSpans: 2, minNS: minNS, maxNS: maxNS, enc: EncDelta}
	replace := func(part string, with []byte) func(string, []byte) []byte {
		return func(p string, b []byte) []byte {
			if p == part {
				return with
			}
			return b
		}
	}
	with := func(edit func(*blockMeta)) blockMeta { m := good; edit(&m); return m }
	net := trace.AppendNetMetrics(nil, trace.NetMetrics{})

	cases := []struct {
		name  string
		image []byte
		want  string // substring of the error
	}{
		{"padded varint", refImage(good, two, replace("pid", []byte{0x80 | 8, 0x00, 2})), "padded"},
		{"port wider than 16 bits", refImage(good, two, replace("src_port", binary.AppendVarint(binary.AppendVarint(nil, 70000), 0))), "outside its field"},
		{"negative tcp seq", refImage(good, two, replace("req_tcp_seq", binary.AppendVarint(binary.AppendVarint(nil, 5), -9))), "outside its field"},
		{"duplicate dictionary entry", refImage(good, two, replace("process", lowCardColumn([]string{"a", "a"}, []int{0, 1}))), "duplicate dictionary entry"},
		{"unused dictionary entry", refImage(good, two, replace("process", lowCardColumn([]string{"a", "b"}, []int{0, 0}))), "unused dictionary entry"},
		{"dictionary out of first-appearance order", refImage(good, two, replace("process", lowCardColumn([]string{"a", "b"}, []int{1, 0}))), "first-appearance"},
		{"dictionary larger than the column", refImage(good, two, replace("process", lowCardColumn([]string{"a", "b", "c"}, []int{0, 1}))), "larger than its column"},
		{"index past the dictionary", refImage(good, two, replace("process", lowCardColumn([]string{"a"}, []int{0, 1}))), "first-appearance"},
		{"custom keys out of order", refImage(good, two, replace("rest", append(append(append([]byte{2, 1, 'b', 0, 1, 'a', 0}, net...), 0), net...))), "out of order"},
		{"custom key twice", refImage(good, two, replace("rest", append(append(append([]byte{2, 1, 'a', 0, 1, 'a', 0}, net...), 0), net...))), "out of order"},
		{"net metric wider than 32 bits", refImage(good, two, replace("rest", append(append(append([]byte{0}, binary.AppendUvarint(nil, 1<<32)...), net[1:]...), append([]byte{0}, net...)...))), "wider than its field"},
		{"trailing bytes", refImage(good, two, func(p string, b []byte) []byte {
			if p == "rest" {
				return append(b, 0)
			}
			return b
		}), "trailing"},
		{"header time range too wide", refImage(with(func(m *blockMeta) { m.minNS-- }), two, nil), "time range"},
		{"header time range over no spans", refImage(with(func(m *blockMeta) { m.nSpans = 0 }), nil, nil), "over no spans"},
		{"unknown encoding", refImage(with(func(m *blockMeta) { m.enc = 7 }), two, nil), "unknown block encoding"},
		{"row count no body could hold", refImage(with(func(m *blockMeta) { m.nSpans = 1 << 40 }), two, nil), "impossible row counts"},
		{"flow count no body could hold", refImage(with(func(m *blockMeta) { m.nFlows = 1 << 62 }), two, nil), "impossible row counts"},
		{"rows cut short", refImage(good, two, replace("rest", []byte{0})), "truncated"},
	}
	valid := refImage(good, two, nil)
	if _, _, _, _, err := unmarshalBlock(valid); err != nil {
		t.Fatalf("the unedited image does not decode: %v", err)
	}
	for _, tc := range cases {
		_, _, _, _, err := unmarshalBlock(tc.image)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: unmarshalBlock error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		for _, images := range [][][]byte{{tc.image}, {valid, tc.image}, {tc.image, valid}} {
			if _, _, err := mergeBlocks(images...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: mergeBlocks of %d inputs error %v, want one mentioning %q", tc.name, len(images), err, tc.want)
			}
		}
	}
}

// fuzzSeeds are the bodies (image minus CRC) the fuzz targets start from:
// the three golden files plus the degenerate shapes.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, name := range goldenBlocks {
		seeds = append(seeds, readGolden(t, name))
	}
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][3]int{{0, 0, 0}, {0, 2, 0}, {0, 0, 2}, {1, 0, 0}, {3, 1, 1}} {
		for enc := EncDelta; enc <= EncLowCard; enc++ {
			seeds = append(seeds, randomRows(rng, shape[0], shape[1], shape[2]).marshal(4, 6, enc))
		}
	}
	for i, img := range seeds {
		seeds[i] = img[:len(img)-4]
	}
	return seeds
}

// FuzzUnmarshalBlock feeds arbitrary bodies under a correct CRC — the
// checksum is not the defence being tested — and requires that decoding
// never panics and that whatever decodes re-encodes to the same bytes.
func FuzzUnmarshalBlock(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		image := appendBlockCRC(bytes.Clone(body))
		meta, spans, flows, profiles, err := unmarshalBlock(image)
		if err != nil {
			return
		}
		if again := marshalBlock(meta.walFirst, meta.walLast, spans, flows, profiles, meta.enc); !bytes.Equal(again, image) {
			t.Fatalf("an image that decodes re-encodes differently (first difference at byte %d of %d)", firstDiff(again, image), len(image))
		}
	})
}

// FuzzMergeBlocks requires of any two bodies that mergeBlocks never
// panics, refuses the pair when either image does not decode (or their
// encodings differ), and otherwise returns exactly the image sealing both
// images' rows together would.
func FuzzMergeBlocks(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i, seed := range seeds {
		f.Add(seed, seeds[(i+3)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, bodyA, bodyB []byte) {
		a, b := appendBlockCRC(bytes.Clone(bodyA)), appendBlockCRC(bytes.Clone(bodyB))
		ma, sa, fa, pa, errA := unmarshalBlock(a)
		mb, sb, fb, pb, errB := unmarshalBlock(b)
		merged, _, err := mergeBlocks(a, b)
		if errA != nil || errB != nil || ma.enc != mb.enc {
			if err == nil {
				t.Fatalf("merged a pair that must not merge (decode errors %v, %v; encodings %s, %s)", errA, errB, ma.enc, mb.enc)
			}
			return
		}
		if err != nil {
			t.Fatalf("two images that decode do not merge: %v", err)
		}
		want := rows{sa, fa, pa}.concat(rows{sb, fb, pb}).marshal(ma.walFirst, mb.walLast, ma.enc)
		if !bytes.Equal(merged, want) {
			t.Fatalf("merge differs from sealing the concatenated rows (first difference at byte %d)", firstDiff(merged, want))
		}
	})
}
