let canary = 1
let qualified = canary + 1
let via_alias = 3

module Passed = struct
  let whole = 4
end
