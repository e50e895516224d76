// Command app is production code outside internal/: its uses count.
package main

import "fixture/internal/lib"

func main() {
	c := lib.Config{}
	println(lib.UsedByCmd(), lib.Describe(), *lib.Bind(&c))
}
