#include "serve/protocol.h"

#include <cmath>

#include "common/json.h"

namespace ropus::serve {

const char* protocol_error_code(ProtocolError e) {
  switch (e) {
    case ProtocolError::kMalformed: return "malformed";
    case ProtocolError::kUnknownType: return "unknown_type";
    case ProtocolError::kMissingField: return "missing_field";
    case ProtocolError::kBadValue: return "bad_value";
    case ProtocolError::kStaleSlot: return "stale_slot";
    case ProtocolError::kSlotGapTooLarge: return "slot_gap_too_large";
    case ProtocolError::kDuplicateApp: return "duplicate_app";
    case ProtocolError::kUnknownApp: return "unknown_app";
    case ProtocolError::kLineTooLong: return "line_too_long";
    case ProtocolError::kOverload: return "overload";
  }
  return "unknown";
}

namespace {

[[noreturn]] void violate(ProtocolError code, const std::string& detail) {
  throw ProtocolViolation(code, detail);
}

double require_number(const json::Value& v, std::string_view field) {
  const json::Value* f = v.find(field);
  if (f == nullptr) {
    violate(ProtocolError::kMissingField,
            "required field '" + std::string(field) + "'");
  }
  if (f->type() != json::Value::Type::kNumber) {
    violate(ProtocolError::kBadValue,
            "field '" + std::string(field) + "' must be a number");
  }
  return f->as_number();
}

TickMessage parse_tick(const json::Value& v) {
  TickMessage tick;
  const double slot = require_number(v, "slot");
  if (!(slot >= 0.0) || slot != std::floor(slot) || slot > 1e12) {
    violate(ProtocolError::kBadValue, "slot must be a non-negative integer");
  }
  tick.slot = static_cast<std::size_t>(slot);
  const json::Value* demand = v.find("demand");
  if (demand == nullptr) {
    violate(ProtocolError::kMissingField, "required field 'demand'");
  }
  if (demand->type() != json::Value::Type::kObject) {
    violate(ProtocolError::kBadValue, "'demand' must be an object");
  }
  for (const auto& [app, reading] : demand->as_object()) {
    DemandReading r;
    r.app = app;
    switch (reading.type()) {
      case json::Value::Type::kNumber:
        r.value = reading.as_number();
        break;
      case json::Value::Type::kNull:
        r.missing = true;
        break;
      default:
        // A non-numeric reading is a corrupt measurement, not a protocol
        // failure: the tick is still judged, the reading goes through the
        // controller's corrupt path. Encode it as an out-of-domain value.
        r.value = -1.0;
        break;
    }
    tick.demand.push_back(std::move(r));
  }
  return tick;
}

AdmitMessage parse_admit(const json::Value& v) {
  AdmitMessage admit;
  const json::Value* app = v.find("app");
  if (app == nullptr) {
    violate(ProtocolError::kMissingField, "required field 'app'");
  }
  if (app->type() != json::Value::Type::kString || app->as_string().empty()) {
    violate(ProtocolError::kBadValue, "'app' must be a non-empty string");
  }
  admit.app = app->as_string();

  const json::Value* profile = v.find("profile");
  if (profile == nullptr) {
    violate(ProtocolError::kMissingField, "required field 'profile'");
  }
  if (profile->type() != json::Value::Type::kArray ||
      profile->as_array().empty()) {
    violate(ProtocolError::kBadValue, "'profile' must be a non-empty array");
  }
  admit.profile.reserve(profile->as_array().size());
  for (const json::Value& d : profile->as_array()) {
    if (d.type() != json::Value::Type::kNumber || !std::isfinite(d.as_number()) ||
        d.as_number() < 0.0) {
      violate(ProtocolError::kBadValue,
              "'profile' entries must be finite non-negative numbers");
    }
    admit.profile.push_back(d.as_number());
  }

  auto number_or = [&](std::string_view field, double fallback) {
    const json::Value* f = v.find(field);
    if (f == nullptr) return fallback;
    if (f->type() != json::Value::Type::kNumber) {
      violate(ProtocolError::kBadValue,
              "field '" + std::string(field) + "' must be a number");
    }
    return f->as_number();
  };
  admit.requirement.u_low = number_or("ulow", admit.requirement.u_low);
  admit.requirement.u_high = number_or("uhigh", admit.requirement.u_high);
  admit.requirement.u_degr = number_or("udegr", admit.requirement.u_degr);
  admit.requirement.m_percent = number_or("m", 97.0);
  if (v.find("tdegr") != nullptr) {
    admit.requirement.t_degr_minutes = number_or("tdegr", 0.0);
  }
  admit.revenue = number_or("revenue", 1.0);
  if (!std::isfinite(admit.revenue) || admit.revenue < 0.0) {
    violate(ProtocolError::kBadValue, "'revenue' must be >= 0");
  }
  try {
    admit.requirement.validate();
  } catch (const Error& e) {
    violate(ProtocolError::kBadValue, std::string(e.message()));
  }
  return admit;
}

DepartMessage parse_depart(const json::Value& v, bool evict) {
  DepartMessage depart;
  depart.evict = evict;
  const json::Value* app = v.find("app");
  if (app == nullptr) {
    violate(ProtocolError::kMissingField, "required field 'app'");
  }
  if (app->type() != json::Value::Type::kString || app->as_string().empty()) {
    violate(ProtocolError::kBadValue, "'app' must be a non-empty string");
  }
  depart.app = app->as_string();
  return depart;
}

/// Largest accepted request id; ids are cache keys, not payloads.
constexpr std::size_t kMaxIdBytes = 128;

std::string parse_id(const json::Value& v) {
  const json::Value* id = v.find("id");
  if (id == nullptr) return {};
  if (id->type() != json::Value::Type::kString || id->as_string().empty()) {
    violate(ProtocolError::kBadValue, "'id' must be a non-empty string");
  }
  if (id->as_string().size() > kMaxIdBytes) {
    violate(ProtocolError::kBadValue,
            "'id' exceeds " + std::to_string(kMaxIdBytes) + " bytes");
  }
  return id->as_string();
}

}  // namespace

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kTick: return "tick";
    case MessageType::kAdmit: return "admit";
    case MessageType::kDepart: return "depart";
    case MessageType::kEvict: return "evict";
    case MessageType::kCheckpoint: return "checkpoint";
    case MessageType::kStats: return "stats";
    case MessageType::kShutdown: return "shutdown";
  }
  return "unknown";
}

Message parse_message(std::string_view line) {
  json::Value v = json::Value::null();
  try {
    v = json::parse(line);
  } catch (const Error& e) {
    violate(ProtocolError::kMalformed, e.what());
  }
  if (v.type() != json::Value::Type::kObject) {
    violate(ProtocolError::kMalformed, "request must be a JSON object");
  }
  const json::Value* type = v.find("type");
  if (type == nullptr || type->type() != json::Value::Type::kString) {
    violate(ProtocolError::kUnknownType, "request needs a string 'type'");
  }
  Message msg;
  msg.id = parse_id(v);
  const std::string& name = type->as_string();
  if (name == "tick") {
    msg.type = MessageType::kTick;
    msg.tick = parse_tick(v);
  } else if (name == "admit") {
    msg.type = MessageType::kAdmit;
    msg.admit = parse_admit(v);
  } else if (name == "depart") {
    msg.type = MessageType::kDepart;
    msg.depart = parse_depart(v, /*evict=*/false);
  } else if (name == "evict") {
    msg.type = MessageType::kEvict;
    msg.depart = parse_depart(v, /*evict=*/true);
  } else if (name == "checkpoint") {
    msg.type = MessageType::kCheckpoint;
  } else if (name == "stats") {
    msg.type = MessageType::kStats;
  } else if (name == "shutdown") {
    msg.type = MessageType::kShutdown;
  } else {
    violate(ProtocolError::kUnknownType, "unknown request type '" + name + "'");
  }
  return msg;
}

std::string error_reply(ProtocolError code, std::string_view detail) {
  json::Writer w;
  w.begin_object();
  w.key("type").value("error");
  w.key("code").value(protocol_error_code(code));
  w.key("detail").value(detail);
  w.end_object();
  return w.str();
}

std::string end_reply(std::string_view id, std::size_t n) {
  json::Writer w;
  w.begin_object();
  w.key("type").value("end");
  w.key("id").value(id);
  w.key("n").value(n);
  w.end_object();
  return w.str();
}

}  // namespace ropus::serve
