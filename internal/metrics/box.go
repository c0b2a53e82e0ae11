package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Box is a crash black box: a dying daemon's final registry snapshot and
// flight-ring dump, persisted so an operator (or dmtp-mon -postmortem) can
// read them after the process is gone. It is /metrics?format=json and
// /events?format=json written to one file, in the same encodings.
type Box struct {
	// Role is the crashing daemon's role ("relay", "sender", "receiver").
	Role string `json:"role"`
	// Reason names the trigger, "panic: <value>" from a daemon's panic
	// handler.
	Reason string `json:"reason"`
	// PID is the crashed process's ID — part of the filename, kept in the
	// document so a renamed file stays attributable.
	PID int `json:"pid"`
	// UnixNano is the capture time.
	UnixNano int64 `json:"unix_nano"`
	// Metrics is the final registry snapshot (nil registry: empty).
	Metrics []Sample `json:"metrics"`
	// Events is the flight-recorder dump, oldest first (nil recorder:
	// empty).
	Events []Event `json:"events"`
}

// WriteBox captures reg and rec (either may be nil) into a Box and
// persists it into dir as blackbox-<pid>-<unixnano>.json, creating dir if
// missing, and returns the file path. The write goes through a temp file
// + rename so a crash during the crash dump never leaves a half-written
// box behind.
func WriteBox(dir, role, reason string, reg *Registry, rec *FlightRecorder) (string, error) {
	b := &Box{
		Role:     role,
		Reason:   reason,
		PID:      os.Getpid(),
		UnixNano: time.Now().UnixNano(),
		Events:   rec.Snapshot(), // nil-safe
	}
	if reg != nil {
		b.Metrics = reg.Snapshot()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("blackbox: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("blackbox-%d-%d.json", b.PID, b.UnixNano))
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("blackbox: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("blackbox: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("blackbox: %w", err)
	}
	return path, nil
}

// ReadBox loads a black-box file written by WriteBox.
func ReadBox(path string) (*Box, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("blackbox: %w", err)
	}
	var b Box
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("blackbox: %s: %w", path, err)
	}
	return &b, nil
}
