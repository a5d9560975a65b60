module dart/bench

go 1.24

require dart v0.0.0

replace dart => ../
