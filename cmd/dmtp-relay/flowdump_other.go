//go:build !unix

package main

import "os"

// notifyFlowDump does nothing where there is no SIGUSR1: the flow table
// is still served on the debug endpoint's /flows.
func notifyFlowDump(chan<- os.Signal) {}
