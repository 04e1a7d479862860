#include "net/message.hpp"

namespace neuropuls::net {

crypto::Bytes encode_message(const Message& message) {
  crypto::Bytes wire;
  wire.reserve(13 + message.payload.size());
  wire.push_back(static_cast<std::uint8_t>(message.type));
  crypto::append_u64_be(wire, message.session_id);
  crypto::append_prefixed(wire, message.payload);
  return wire;
}

Message decode_message(crypto::ByteView wire) {
  crypto::ByteReader reader(wire, "decode_message");
  Message message;
  message.type = static_cast<MessageType>(reader.u8());
  message.session_id = reader.u64();
  const crypto::ByteView payload = reader.prefixed();
  if (!reader.done()) reader.fail("length mismatch");
  message.payload.assign(payload.begin(), payload.end());
  return message;
}

std::string message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kAuthRequest: return "auth-request";
    case MessageType::kAuthResponse: return "auth-response";
    case MessageType::kAuthConfirm: return "auth-confirm";
    case MessageType::kAttestRequest: return "attest-request";
    case MessageType::kAttestReport: return "attest-report";
    case MessageType::kEkeClientHello: return "eke-client-hello";
    case MessageType::kEkeServerHello: return "eke-server-hello";
    case MessageType::kEkeClientConfirm: return "eke-client-confirm";
    case MessageType::kEkeServerConfirm: return "eke-server-confirm";
    case MessageType::kData: return "data";
    case MessageType::kError: return "error";
  }
  return "unknown";
}

}  // namespace neuropuls::net
