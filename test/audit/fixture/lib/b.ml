module Alias = A
