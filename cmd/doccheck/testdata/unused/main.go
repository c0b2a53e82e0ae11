// Command fixture is the one main package of the -unused test module.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() { fmt.Println(lib.NewLive()) }
