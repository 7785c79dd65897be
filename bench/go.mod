module leveldbpp/bench

go 1.22

require leveldbpp v0.0.0

replace leveldbpp => ../
