#include "storage/record.h"

#include <cstring>

namespace epfis {

Result<std::string> Record::Serialize(const Schema& schema) const {
  if (values_.size() != schema.num_columns()) {
    return Status::InvalidArgument("record arity does not match schema");
  }
  std::string out(schema.record_size(), '\0');
  for (size_t i = 0; i < values_.size(); ++i) {
    std::memcpy(out.data() + i * sizeof(int64_t), &values_[i],
                sizeof(int64_t));
  }
  return out;
}

Status Record::CheckSize(const Schema& schema, std::string_view data) {
  if (data.size() != schema.record_size()) {
    return Status::Corruption("serialized record has size " +
                              std::to_string(data.size()) + ", expected " +
                              std::to_string(schema.record_size()));
  }
  return Status::Ok();
}

Result<Record> Record::Deserialize(const Schema& schema,
                                   std::string_view data) {
  EPFIS_RETURN_IF_ERROR(CheckSize(schema, data));
  std::vector<int64_t> values(schema.num_columns());
  for (size_t i = 0; i < values.size(); ++i) values[i] = FieldAt(data, i);
  return Record(std::move(values));
}

}  // namespace epfis
