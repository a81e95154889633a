module cilkgo/cmd/cilkbench

go 1.22

require cilkgo v0.0.0

replace cilkgo => ../..
