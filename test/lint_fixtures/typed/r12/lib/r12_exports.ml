let used x = x + 1
let unused x = x + 2
let tested x = x + 3
let main_only x = x + 4
let functor_only x = x + 6
let kept x = x + 5
