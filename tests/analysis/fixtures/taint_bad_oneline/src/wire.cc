// Fixture: a frame pump whose loop and `if` bodies share their heads'
// lines. The untrusted decoder fills `frame` through an out-parameter in
// each head, and each body hands the frame to a helper that reserves its
// wire count. The head runs first, so both calls must be reported.
#define SJ_UNTRUSTED
#include <vector>

struct Frame {
  unsigned count;
};

struct Decoder {
  SJ_UNTRUSTED bool Next(Frame* out) {
    out->count = static_cast<unsigned char>(buf[0]);
    return true;
  }
  const char* buf;
};

void HandleFrame(const Frame& frame, std::vector<int>& rows) {
  rows.reserve(frame.count);
}

void Pump(Decoder& decoder, std::vector<int>& rows) {
  Frame frame;
  while (decoder.Next(&frame)) HandleFrame(frame, rows);
}

void PumpOne(Decoder& decoder, std::vector<int>& rows) {
  Frame frame;
  if (decoder.Next(&frame)) HandleFrame(frame, rows);
}
