#ifndef T5BENCH_RESPONSE_H_
#define T5BENCH_RESPONSE_H_

// Readers for a query server /query response body.

#include <cstdint>
#include <string_view>

#include "common.h"

namespace t5 {

// Digests the "rows" array of a /query body: each row's cells, unescaped
// and joined with kCellSeparator, is one multiset element. False when the
// body has no well-formed rows array.
bool DigestResponseRows(std::string_view body, RowDigest* digest);

// First `"name": <integer>` in `body`, or -1.
int64_t JsonInt(std::string_view body, std::string_view name);

}  // namespace t5

#endif  // T5BENCH_RESPONSE_H_
