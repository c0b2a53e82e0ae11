package wire

import (
	"fmt"
	"slices"
)

// Control packets reuse the 8-byte core header with a ConfigID in the
// control range; the control body follows immediately. The experiment ID is
// preserved so that on-path elements and endpoints can attribute control
// traffic to the stream it concerns without deep inspection.

// NAK is a negative acknowledgement: a request to retransmit the listed
// sequence ranges from a retransmission buffer (paper §5.4: "DTN 2 then
// uses this information to detect loss, and to prepare a NAK to restore the
// missing packets").
type NAK struct {
	Experiment ExperimentID
	// Requester is where the retransmitted packets should be sent.
	Requester Addr
	// Ranges lists missing sequence numbers as inclusive [From, To] pairs.
	Ranges []SeqRange
}

// SeqRange is an inclusive range of missing sequence numbers.
type SeqRange struct {
	From, To uint64
}

// Count returns the number of sequence numbers covered by the range.
func (r SeqRange) Count() uint64 {
	if r.To < r.From {
		return 0
	}
	return r.To - r.From + 1
}

// TotalMissing returns the total number of sequence numbers the NAK requests.
func (n *NAK) TotalMissing() uint64 {
	var total uint64
	for _, r := range n.Ranges {
		total += r.Count()
	}
	return total
}

// nakBodyFixed is requester (6) + reserved (2) + range count (2).
const nakBodyFixed = 10

// AppendTo appends the encoded NAK packet (core header + body) to b,
// growing b at most once.
func (n *NAK) AppendTo(b []byte) ([]byte, error) {
	if len(n.Ranges) > 0xFFFF {
		return nil, fmt.Errorf("wire: NAK with %d ranges exceeds 65535", len(n.Ranges))
	}
	h := Header{ConfigID: ConfigNAK, Experiment: n.Experiment}
	b, err := h.AppendTo(slices.Grow(b, CoreHeaderLen+nakBodyFixed+16*len(n.Ranges)))
	if err != nil {
		return nil, err
	}
	var fixed [nakBodyFixed]byte
	n.Requester.put(fixed[0:6])
	be.PutUint16(fixed[8:10], uint16(len(n.Ranges)))
	b = append(b, fixed[:]...)
	var rb [16]byte
	for _, r := range n.Ranges {
		be.PutUint64(rb[0:8], r.From)
		be.PutUint64(rb[8:16], r.To)
		b = append(b, rb[:]...)
	}
	return b, nil
}

// DecodeFrom parses a NAK packet into n, reusing n.Ranges' capacity — the
// zero-allocation decode path for a relay's steady-state NAK service. b is
// not retained.
func (n *NAK) DecodeFrom(b []byte) error {
	var h Header
	hn, err := h.DecodeFromBytes(b)
	if err != nil {
		return err
	}
	if h.ConfigID != ConfigNAK {
		return fmt.Errorf("%w: config ID %#02x is not a NAK", ErrNotDMTP, h.ConfigID)
	}
	body := b[hn:]
	if len(body) < nakBodyFixed {
		return fmt.Errorf("%w: NAK body %d bytes", ErrTruncated, len(body))
	}
	count := int(be.Uint16(body[8:10]))
	if len(body)-nakBodyFixed < count*16 {
		return fmt.Errorf("%w: NAK ranges need %d bytes, have %d", ErrTruncated, count*16, len(body)-nakBodyFixed)
	}
	n.Experiment = h.Experiment
	n.Requester = addrFromBytes(body[0:6])
	body = body[nakBodyFixed:]
	if cap(n.Ranges) >= count {
		n.Ranges = n.Ranges[:count]
	} else {
		n.Ranges = make([]SeqRange, count)
	}
	for i := range n.Ranges {
		n.Ranges[i] = SeqRange{
			From: be.Uint64(body[i*16 : i*16+8]),
			To:   be.Uint64(body[i*16+8 : i*16+16]),
		}
	}
	return nil
}

// DeadlineExceeded notifies the configured sink that a packet missed its
// delivery deadline (paper §5.3 "timeliness mode").
type DeadlineExceeded struct {
	Experiment    ExperimentID
	Seq           uint64
	DeadlineNanos uint64
	ObservedNanos uint64
	Reporter      Addr
}

const deadlineBodyLen = 8 + 8 + 8 + 6 + 2

// AppendTo appends the encoded notification packet to b.
func (d *DeadlineExceeded) AppendTo(b []byte) ([]byte, error) {
	h := Header{ConfigID: ConfigDeadlineExceeded, Experiment: d.Experiment}
	b, err := h.AppendTo(b)
	if err != nil {
		return nil, err
	}
	var body [deadlineBodyLen]byte
	be.PutUint64(body[0:8], d.Seq)
	be.PutUint64(body[8:16], d.DeadlineNanos)
	be.PutUint64(body[16:24], d.ObservedNanos)
	d.Reporter.put(body[24:30])
	return append(b, body[:]...), nil
}

// DecodeDeadlineExceeded parses a deadline-exceeded notification packet.
func DecodeDeadlineExceeded(b []byte) (*DeadlineExceeded, error) {
	d := &DeadlineExceeded{}
	if err := d.DecodeFrom(b); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeFrom parses a deadline-exceeded notification into d, the
// allocation-free counterpart of DecodeDeadlineExceeded. b is not retained.
func (d *DeadlineExceeded) DecodeFrom(b []byte) error {
	var h Header
	hn, err := h.DecodeFromBytes(b)
	if err != nil {
		return err
	}
	if h.ConfigID != ConfigDeadlineExceeded {
		return fmt.Errorf("%w: config ID %#02x is not deadline-exceeded", ErrNotDMTP, h.ConfigID)
	}
	body := b[hn:]
	if len(body) < deadlineBodyLen {
		return fmt.Errorf("%w: deadline body %d bytes", ErrTruncated, len(body))
	}
	d.Experiment = h.Experiment
	d.Seq = be.Uint64(body[0:8])
	d.DeadlineNanos = be.Uint64(body[8:16])
	d.ObservedNanos = be.Uint64(body[16:24])
	d.Reporter = addrFromBytes(body[24:30])
	return nil
}

// BackPressureSignal is relayed toward the sender when an on-path element
// observes downstream congestion or loss (paper §5.1).
type BackPressureSignal struct {
	Experiment ExperimentID
	// Level is the advisory severity: 0 = clear, 255 = stop sending.
	Level uint8
	// RateHintMbps suggests a pacing rate the bottleneck can sustain;
	// zero means no hint.
	RateHintMbps uint32
	Reporter     Addr
}

const backPressureBodyLen = 1 + 3 + 4 + 6 + 2

// AppendTo appends the encoded back-pressure packet to b.
func (s *BackPressureSignal) AppendTo(b []byte) ([]byte, error) {
	h := Header{ConfigID: ConfigBackPressure, Experiment: s.Experiment}
	b, err := h.AppendTo(b)
	if err != nil {
		return nil, err
	}
	var body [backPressureBodyLen]byte
	body[0] = s.Level
	be.PutUint32(body[4:8], s.RateHintMbps)
	s.Reporter.put(body[8:14])
	return append(b, body[:]...), nil
}

// DecodeBackPressure parses a back-pressure signal packet.
func DecodeBackPressure(b []byte) (*BackPressureSignal, error) {
	s := &BackPressureSignal{}
	if err := s.DecodeFrom(b); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeFrom parses a back-pressure signal into s, the allocation-free
// counterpart of DecodeBackPressure. b is not retained.
func (s *BackPressureSignal) DecodeFrom(b []byte) error {
	var h Header
	hn, err := h.DecodeFromBytes(b)
	if err != nil {
		return err
	}
	if h.ConfigID != ConfigBackPressure {
		return fmt.Errorf("%w: config ID %#02x is not back-pressure", ErrNotDMTP, h.ConfigID)
	}
	body := b[hn:]
	if len(body) < backPressureBodyLen {
		return fmt.Errorf("%w: back-pressure body %d bytes", ErrTruncated, len(body))
	}
	s.Experiment = h.Experiment
	s.Level = body[0]
	s.RateHintMbps = be.Uint32(body[4:8])
	s.Reporter = addrFromBytes(body[8:14])
	return nil
}

// Ack is an optional positive acknowledgement carrying the highest
// contiguously received sequence number. The paper leaves the
// acknowledgement scheme mode-configurable ("describe the acknowledgement
// scheme—if any—used in a network segment"); Ack supports modes that want
// one, e.g. to let a buffer trim acknowledged data.
type Ack struct {
	Experiment    ExperimentID
	CumulativeSeq uint64
	Acker         Addr
}

const ackBodyLen = 8 + 6 + 2

// AppendTo appends the encoded ACK packet to b, growing b at most once.
func (a *Ack) AppendTo(b []byte) ([]byte, error) {
	h := Header{ConfigID: ConfigAck, Experiment: a.Experiment}
	b, err := h.AppendTo(slices.Grow(b, CoreHeaderLen+ackBodyLen))
	if err != nil {
		return nil, err
	}
	var body [ackBodyLen]byte
	be.PutUint64(body[0:8], a.CumulativeSeq)
	a.Acker.put(body[8:14])
	return append(b, body[:]...), nil
}

// DecodeAck parses an ACK packet.
func DecodeAck(b []byte) (*Ack, error) {
	a := &Ack{}
	if err := a.DecodeFrom(b); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeFrom parses an ACK packet into a, the allocation-free counterpart
// of DecodeAck. b is not retained.
func (a *Ack) DecodeFrom(b []byte) error {
	var h Header
	hn, err := h.DecodeFromBytes(b)
	if err != nil {
		return err
	}
	if h.ConfigID != ConfigAck {
		return fmt.Errorf("%w: config ID %#02x is not an ACK", ErrNotDMTP, h.ConfigID)
	}
	body := b[hn:]
	if len(body) < ackBodyLen {
		return fmt.Errorf("%w: ACK body %d bytes", ErrTruncated, len(body))
	}
	a.Experiment = h.Experiment
	a.CumulativeSeq = be.Uint64(body[0:8])
	a.Acker = addrFromBytes(body[8:14])
	return nil
}

// ResourceKind classifies an in-network programmable resource. It is the
// one kind enum: adverts carry it as one byte, and the resource map and
// planner (internal/discovery) use it as is.
type ResourceKind uint8

// Resource kinds.
const (
	// ResourceBuffer is a retransmission buffer (FPGA NIC or DTN store).
	ResourceBuffer ResourceKind = iota + 1
	// ResourceModeChanger is a programmable element that can rewrite modes.
	ResourceModeChanger
	// ResourceDuplicator can clone streams toward distribution groups.
	ResourceDuplicator
	// ResourceTelemetry exports per-experiment counters.
	ResourceTelemetry
)

// String names the resource kind ("buffer", "mode-changer", …).
func (k ResourceKind) String() string {
	switch k {
	case ResourceBuffer:
		return "buffer"
	case ResourceModeChanger:
		return "mode-changer"
	case ResourceDuplicator:
		return "duplicator"
	case ResourceTelemetry:
		return "telemetry"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ResourceAdvert announces an in-network programmable resource — the
// paper's §6 open challenge: "a map of in-network programmable resources
// that DAQ workloads can use. This map is shared between network
// operators — perhaps by piggy-backing on BGP messages". This
// reproduction floods adverts hop by hop between participating elements
// (internal/discovery) instead of riding BGP, which preserves the
// behaviour: every element learns the resources and their positions.
type ResourceAdvert struct {
	// Origin is the advertised resource's address.
	Origin Addr
	// Kind classifies the resource.
	Kind ResourceKind
	// Segment is the origin's position hint: the index of the path
	// segment at whose downstream edge the resource sits.
	Segment uint8
	// CapacityBytes sizes buffers; zero for non-buffers.
	CapacityBytes uint64
	// SeqNo orders re-advertisements from the same origin.
	SeqNo uint32
	// TTL bounds flooding scope in hops.
	TTL uint8
}

const advertBodyLen = 6 + 1 + 1 + 8 + 4 + 1 + 3

// AppendTo appends the encoded advertisement packet to b.
func (a *ResourceAdvert) AppendTo(b []byte) ([]byte, error) {
	h := Header{ConfigID: ConfigResourceAdvert}
	b, err := h.AppendTo(b)
	if err != nil {
		return nil, err
	}
	var body [advertBodyLen]byte
	a.Origin.put(body[0:6])
	body[6] = uint8(a.Kind)
	body[7] = a.Segment
	be.PutUint64(body[8:16], a.CapacityBytes)
	be.PutUint32(body[16:20], a.SeqNo)
	body[20] = a.TTL
	return append(b, body[:]...), nil
}

// DecodeResourceAdvert parses an advertisement packet.
func DecodeResourceAdvert(b []byte) (*ResourceAdvert, error) {
	a := &ResourceAdvert{}
	if err := a.DecodeFrom(b); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeFrom parses an advertisement packet into a, the allocation-free
// counterpart of DecodeResourceAdvert. b is not retained.
func (a *ResourceAdvert) DecodeFrom(b []byte) error {
	var h Header
	hn, err := h.DecodeFromBytes(b)
	if err != nil {
		return err
	}
	if h.ConfigID != ConfigResourceAdvert {
		return fmt.Errorf("%w: config ID %#02x is not a resource advert", ErrNotDMTP, h.ConfigID)
	}
	body := b[hn:]
	if len(body) < advertBodyLen {
		return fmt.Errorf("%w: advert body %d bytes", ErrTruncated, len(body))
	}
	a.Origin = addrFromBytes(body[0:6])
	a.Kind = ResourceKind(body[6])
	a.Segment = body[7]
	a.CapacityBytes = be.Uint64(body[8:16])
	a.SeqNo = be.Uint32(body[16:20])
	a.TTL = body[20]
	return nil
}
