// Fixture: a wire-derived request id is captured by a lambda handed to
// Submit, whose status (no wire value) then sizes a buffer. The capture
// feeds the lambda's body, not Submit's result, so the checker must stay
// silent.
#define SJ_UNTRUSTED
#include <functional>
#include <vector>

SJ_UNTRUSTED unsigned ReadWireU32(const char* p) {
  return static_cast<unsigned char>(p[0]);
}

void Log(unsigned id) { (void)id; }

int Submit(const std::function<void()>& task) {
  task();
  return 4;
}

void HandleRequest(const char* payload, std::vector<int>& rows) {
  unsigned request_id = ReadWireU32(payload);
  int slots = Submit([request_id, &rows] { Log(request_id); });
  rows.reserve(slots);
}
