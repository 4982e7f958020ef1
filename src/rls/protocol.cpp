#include "rls/protocol.h"

namespace rls {

using net::Reader;
using net::Writer;

std::string OpName(uint16_t opcode) {
  const OpSpec* op = FindOp(opcode);
  return std::string(op ? op->name : "unknown");
}

void AttrValue::Encode(Writer* w) const {
  w->U8(static_cast<uint8_t>(type));
  switch (type) {
    case AttrType::kString:
      w->Str(string_value);
      break;
    case AttrType::kInt:
    case AttrType::kDate:
      w->I64(int_value);
      break;
    case AttrType::kFloat:
      w->F64(float_value);
      break;
  }
}

bool AttrValue::Decode(Reader* r, AttrValue* out) {
  uint8_t type = 0;
  if (!r->U8(&type) || type > static_cast<uint8_t>(AttrType::kLast)) return false;
  out->type = static_cast<AttrType>(type);
  switch (out->type) {
    case AttrType::kString:
      return r->Str(&out->string_value);
    case AttrType::kInt:
    case AttrType::kDate:
      return r->I64(&out->int_value);
    case AttrType::kFloat:
      return r->F64(&out->float_value);
  }
  return false;
}

std::string AttrValue::ToString() const {
  switch (type) {
    case AttrType::kString: return string_value;
    case AttrType::kInt: return std::to_string(int_value);
    case AttrType::kDate: return std::to_string(int_value) + "us";
    case AttrType::kFloat: return std::to_string(float_value);
  }
  return "?";
}

}  // namespace rls
