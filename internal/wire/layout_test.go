package wire

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// The bit walks the layouts table replaced, kept as the reference model.

func walkExtLen(f Features) int {
	n := 0
	for i := 0; i < featureCount; i++ {
		if f&(1<<i) != 0 {
			n += extSizes[i]
		}
	}
	return n
}

func walkExtOffset(f, feat Features) (int, error) {
	if f&feat == 0 {
		return 0, ErrMissingFeature
	}
	off := 0
	for i := 0; i < featureCount; i++ {
		bit := Features(1) << i
		if bit == feat {
			return off, nil
		}
		if f&bit != 0 {
			off += extSizes[i]
		}
	}
	return 0, ErrMissingFeature
}

func walkFeatureSize(feat Features) int {
	for i := 0; i < featureCount; i++ {
		if feat == 1<<i {
			return extSizes[i]
		}
	}
	return 0
}

// TestLayoutTableMatchesWalk checks the table against the walk for every
// feature set and every field, and that everything the walk refused is
// still refused: undefined bits, inactive features, and a feat that is not
// exactly one defined bit.
func TestLayoutTableMatchesWalk(t *testing.T) {
	feats := []Features{0, FeatSequenced | FeatReliable, AllFeatures, 1 << featureCount, 1 << 23, FeatTraced | 1<<featureCount}
	for i := 0; i < featureCount; i++ {
		feats = append(feats, 1<<i)
	}
	for f := Features(0); f <= AllFeatures; f++ {
		if n, err := f.ExtLen(); err != nil || n != walkExtLen(f) {
			t.Fatalf("%v: ExtLen = %d, %v; walk %d", f, n, err, walkExtLen(f))
		}
		for _, feat := range feats {
			start, end, err := f.extRange(feat)
			off, werr := walkExtOffset(f, feat)
			if !errors.Is(err, werr) {
				t.Fatalf("%v field %v: err %v, walk %v", f, feat, err, werr)
			}
			if err == nil && (start != CoreHeaderLen+off || end-start != walkFeatureSize(feat)) {
				t.Fatalf("%v field %v: [%d,%d), walk offset %d size %d", f, feat, start, end, off, walkFeatureSize(feat))
			}
		}
	}
	for _, f := range []Features{1 << featureCount, 1 << 23, AllFeatures + 1, AllFeatures | 1<<12} {
		if _, err := f.ExtLen(); !errors.Is(err, ErrUnknownFeature) {
			t.Fatalf("%#x: ExtLen err = %v, want ErrUnknownFeature", uint32(f), err)
		}
		if _, _, err := f.extRange(FeatSequenced); !errors.Is(err, ErrUnknownFeature) {
			t.Fatalf("%#x: extRange err = %v, want ErrUnknownFeature", uint32(f), err)
		}
	}
}

// FuzzFieldLayout holds the Layout readers to the checked View accessors:
// any feature set, any bytes from the experiment ID on (what the header
// does not take is payload) and any data config ID. Whatever passes Check
// reads the same through the packet's Layout as through View.
func FuzzFieldLayout(f *testing.F) {
	live := FeatSequenced | FeatReliable | FeatAgeTracked | FeatTimely | FeatTimestamped
	nonzero := bytes.Repeat([]byte{0x5a, 0xc3, 0x01}, 60)
	for _, feats := range []Features{live, AllFeatures} {
		f.Add(uint16(feats), nonzero, uint8(1))
		f.Add(uint16(feats), []byte(nil), uint8(0))
	}
	f.Fuzz(func(t *testing.T, feats uint16, hdr []byte, cfg uint8) {
		h := Header{ConfigID: cfg % ControlBase, Features: Features(feats) & AllFeatures}
		pkt, err := h.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		n := copy(pkt[4:], hdr)
		v := View(append(pkt, hdr[n:]...))
		hdrLen, err := v.Check()
		if err != nil {
			t.Fatal(err)
		}
		l := v.Layout()
		same := func(field string, got any, ok bool, want any, err error) {
			t.Helper()
			if ok != (err == nil) || ok && got != want {
				t.Fatalf("%v %s: layout %v, %v; View %v, %v", h.Features, field, got, ok, want, err)
			}
		}
		seq, ok := l.Seq(v)
		wseq, err := v.Seq()
		same("seq", seq, ok, wseq, err)
		buf, ok := l.RetransmitBuffer(v)
		wbuf, err := v.RetransmitBuffer()
		same("retransmit buffer", buf, ok, wbuf, err)
		age, ok := l.Age(v)
		wage, err := v.Age()
		same("age", age, ok, wage, err)
		dl, ok := l.Deadline(v)
		wdl, _, err := v.Deadline()
		same("deadline", dl, ok, wdl, err)
		ts, ok := l.OriginTimestamp(v)
		wts, err := v.OriginTimestamp()
		same("origin timestamp", ts, ok, wts, err)
		if l.HeaderLen() != hdrLen || v.HeaderLen() != hdrLen {
			t.Fatalf("%v: layout header %d, View %d, Check %d", h.Features, l.HeaderLen(), v.HeaderLen(), hdrLen)
		}
	})
}

// TestViewExtRefusals pins the checks every in-place accessor shares.
func TestViewExtRefusals(t *testing.T) {
	v := mustEncode(t, Header{ConfigID: 1, Features: FeatSequenced | FeatEncrypted}, []byte("p"))
	for _, c := range []struct {
		name string
		v    View
		feat Features
		want error
	}{
		{"inactive", v, FeatReliable, ErrMissingFeature},
		{"multi-bit", v, FeatSequenced | FeatEncrypted, ErrMissingFeature},
		{"no bit", v, 0, ErrMissingFeature},
		{"truncated", v[:CoreHeaderLen+12], FeatEncrypted, ErrTruncated},
		{"control", mustEncode(t, Header{ConfigID: ConfigNAK, Features: FeatSequenced}, make([]byte, 8)), FeatSequenced, ErrControlPacket},
		{"undefined bit", View{1, 0x80, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, FeatSequenced, ErrUnknownFeature},
	} {
		if _, err := c.v.ext(c.feat); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := v[:CoreHeaderLen+12].Cipher(); !errors.Is(err, ErrTruncated) {
		t.Errorf("Cipher on a truncated packet: %v", err)
	}
}

// viewFields moves each extension between a View and a Header through the
// View's getter and setter, indexed by feature bit position.
var viewFields = [featureCount]struct {
	get func(View, *Header) error
	set func(View, *Header) error
}{
	{func(v View, h *Header) (err error) { h.Seq.Seq, err = v.Seq(); return },
		func(v View, h *Header) error { return v.SetSeq(h.Seq.Seq) }},
	{func(v View, h *Header) (err error) { h.Retransmit.Buffer, err = v.RetransmitBuffer(); return },
		func(v View, h *Header) error { return v.SetRetransmitBuffer(h.Retransmit.Buffer) }},
	{func(v View, h *Header) (err error) {
		h.Deadline.DeadlineNanos, h.Deadline.Notify, err = v.Deadline()
		return
	},
		func(v View, h *Header) error { return v.SetDeadline(h.Deadline.DeadlineNanos, h.Deadline.Notify) }},
	{func(v View, h *Header) (err error) { h.Age, err = v.Age(); return },
		// No whole-field setter: budget, then age from zero, then the flags
		// AddAge could not have set itself.
		func(v View, h *Header) error {
			if err := v.SetMaxAge(h.Age.MaxAgeMicros); err != nil {
				return err
			}
			_, err := v.AddAge(h.Age.AgeMicros)
			return err
		}},
	{func(v View, h *Header) (err error) { h.Pace, err = v.Pace(); return },
		func(v View, h *Header) error { return v.SetPace(h.Pace) }},
	{func(v View, h *Header) (err error) { h.BackPressure, err = v.BackPressure(); return },
		func(v View, h *Header) error { return v.SetBackPressure(h.BackPressure) }},
	{func(v View, h *Header) (err error) { h.Dup, err = v.Dup(); return },
		func(v View, h *Header) error { return v.SetDup(h.Dup) }},
	{func(v View, h *Header) (err error) { h.Cipher, err = v.Cipher(); return },
		func(v View, h *Header) error { return v.SetCipher(h.Cipher) }},
	{func(v View, h *Header) (err error) { h.Timestamp.OriginNanos, err = v.OriginTimestamp(); return },
		func(v View, h *Header) error { return v.SetOriginTimestamp(h.Timestamp.OriginNanos) }},
	{func(v View, h *Header) (err error) { h.Trace, err = v.Trace(); return },
		func(v View, h *Header) error { return v.SetTrace(h.Trace) }},
}

// TestViewAndHeaderShareOneCodec: for every extension and any feature set,
// what Header.AppendTo encodes the View getter reads back, and what the
// View setter writes is byte-for-byte what AppendTo encodes (so
// DecodeFromBytes reads it back too). Inactive fields are refused.
func TestViewAndHeaderShareOneCodec(t *testing.T) {
	f := func(h Header) bool {
		h = canonHeader(h)
		// The age flags a setter sequence can produce are the ones AddAge
		// derives; the partial setters are covered separately below.
		h.Age.Flags = 0
		if h.Age.MaxAgeMicros != 0 && h.Age.AgeMicros >= h.Age.MaxAgeMicros {
			h.Age.Flags = AgedFlag
		}
		core := Header{ConfigID: h.ConfigID, Features: h.Features, Experiment: h.Experiment}
		enc, blank, got := mustEncode(t, h, nil), mustEncode(t, core, nil), core
		for i, field := range viewFields {
			if !h.Features.Has(1 << i) {
				if err := field.get(enc, &got); !errors.Is(err, ErrMissingFeature) {
					t.Logf("%v: get of inactive %v: %v", h.Features, Features(1<<i), err)
					return false
				}
				if err := field.set(blank, &h); !errors.Is(err, ErrMissingFeature) {
					t.Logf("%v: set of inactive %v: %v", h.Features, Features(1<<i), err)
					return false
				}
				continue
			}
			if err := field.get(enc, &got); err != nil {
				t.Logf("get %v: %v", Features(1<<i), err)
				return false
			}
			if err := field.set(blank, &h); err != nil {
				t.Logf("set %v: %v", Features(1<<i), err)
				return false
			}
		}
		if !reflect.DeepEqual(got, h) {
			t.Logf("getters read\n %+v\nencoded\n %+v", got, h)
			return false
		}
		if !bytes.Equal(blank, enc) {
			t.Logf("%v: setters wrote\n %x\nAppendTo\n %x", h.Features, blank, enc)
			return false
		}
		var dec Header
		if _, err := dec.DecodeFromBytes(blank); err != nil || !reflect.DeepEqual(dec, h) {
			t.Logf("decode of setter-written packet: %v\n %+v\nwant\n %+v", err, dec, h)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestViewPartialSettersKeepTheRestOfTheField: the one-member setters
// rewrite their member and nothing else of the field.
func TestViewPartialSettersKeepTheRestOfTheField(t *testing.T) {
	h := Header{
		ConfigID:     1,
		Features:     FeatAgeTracked | FeatBackPressure | FeatDuplicate,
		Age:          AgeExt{AgeMicros: 7, MaxAgeMicros: 9, Flags: 0xF0},
		BackPressure: BackPressureExt{Sink: AddrFrom(10, 0, 0, 9, 700), Level: 3},
		Dup:          DupExt{Group: 0xCAFEF00D, Scope: 2},
	}
	v := mustEncode(t, h, nil)
	if err := v.SetBackPressureLevel(200); err != nil {
		t.Fatal(err)
	}
	if err := v.SetDupScope(1); err != nil {
		t.Fatal(err)
	}
	if err := v.SetMaxAge(8); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddAge(1); err != nil {
		t.Fatal(err)
	}
	h.BackPressure.Level, h.Dup.Scope = 200, 1
	h.Age = AgeExt{AgeMicros: 8, MaxAgeMicros: 8, Flags: 0xF0 | AgedFlag}
	if want := mustEncode(t, h, nil); !bytes.Equal(v, want) {
		t.Fatalf("partial setters wrote\n %x\nwant\n %x", v, want)
	}
}

// TestProtocolDocMatchesLayout ties PROTOCOL.md's "Feature flags and
// extension fields" table to the code: one row per feature bit, in wire
// order, naming the flag as Features.String prints it and stating the
// extension size extSizes holds.
func TestProtocolDocMatchesLayout(t *testing.T) {
	data, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "## Feature flags and extension fields")
	if !ok {
		t.Fatal("PROTOCOL.md lost its \"Feature flags and extension fields\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := regexp.MustCompile("(?m)^\\| (\\d+) \\| \\w+ \\(`(\\w+)`\\) \\| (\\d+) \\|").FindAllStringSubmatch(section, -1)
	if len(rows) != featureCount {
		t.Fatalf("PROTOCOL.md lists %d feature rows, the code defines %d", len(rows), featureCount)
	}
	for i, row := range rows {
		bit, _ := strconv.Atoi(row[1])
		size, _ := strconv.Atoi(row[3])
		if bit != i || row[2] != featureNames[i] || size != extSizes[i] {
			t.Errorf("PROTOCOL.md row %d says bit %d `%s` %d bytes; code has bit %d `%s` %d bytes",
				i, bit, row[2], size, i, featureNames[i], extSizes[i])
		}
	}
}
