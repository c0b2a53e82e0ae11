package wire

// Packet-kind vocabulary. The flight-recorder dumps and the tracespan
// span labels name packet classes with these strings, so one grep
// matches the same protocol event across every observability surface.
const (
	// KindData is an untraced DMTP data packet.
	KindData = "data"
	// KindTrace is a data packet carrying a FeatTraced extension.
	KindTrace = "trace"
	// KindNAK is a retransmit request (ConfigNAK).
	KindNAK = "nak"
	// KindAck is a cumulative acknowledgement (ConfigAck).
	KindAck = "ack"
	// KindDeadline is a timeliness-violation notification.
	KindDeadline = "deadline"
	// KindBackPressure is a back-pressure signal.
	KindBackPressure = "bp"
	// KindAdvert is an in-network resource advertisement.
	KindAdvert = "advert"
	// KindOther is anything that is not a recognised DMTP packet.
	KindOther = "other"
)

// KindOf classifies a frame by its leading DMTP header: one of the Kind*
// constants. Data packets carrying FeatTraced classify as KindTrace.
func KindOf(b []byte) string {
	v := View(b)
	if _, err := v.Check(); err != nil {
		return KindOther
	}
	switch v.ConfigID() {
	case ConfigNAK:
		return KindNAK
	case ConfigAck:
		return KindAck
	case ConfigDeadlineExceeded:
		return KindDeadline
	case ConfigBackPressure:
		return KindBackPressure
	case ConfigResourceAdvert:
		return KindAdvert
	}
	if v.IsControl() {
		return KindOther
	}
	if v.Features().Has(FeatTraced) {
		return KindTrace
	}
	return KindData
}
