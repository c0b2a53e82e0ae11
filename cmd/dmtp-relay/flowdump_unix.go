//go:build unix

package main

import (
	"os"
	"os/signal"
	"syscall"
)

// notifyFlowDump delivers SIGUSR1, the request for a flow-table dump, on c.
func notifyFlowDump(c chan<- os.Signal) { signal.Notify(c, syscall.SIGUSR1) }
