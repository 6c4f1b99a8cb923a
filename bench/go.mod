module streamxpath/bench

go 1.22

require streamxpath v0.0.0

replace streamxpath => ../
