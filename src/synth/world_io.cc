#include "synth/world_io.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/strings.h"

namespace mic::synth {
namespace {

// One "key=value" field; positional fields have an empty key.
struct Field {
  std::string key;
  std::string value;
};

Result<std::vector<Field>> ParseFields(const std::string& line) {
  std::vector<Field> fields;
  for (const std::string& token : Split(line, ',')) {
    const std::string_view stripped = StripWhitespace(token);
    if (stripped.empty()) continue;
    const std::size_t equals = stripped.find('=');
    Field field;
    if (equals == std::string_view::npos) {
      field.value = std::string(stripped);
    } else {
      field.key = std::string(StripWhitespace(stripped.substr(0, equals)));
      field.value =
          std::string(StripWhitespace(stripped.substr(equals + 1)));
      if (field.key.empty()) {
        return Status::InvalidArgument("empty key in '" + token + "'");
      }
    }
    fields.push_back(std::move(field));
  }
  return fields;
}

Result<double> FieldDouble(const Field& field) {
  return ParseDouble(field.value);
}

Result<int> FieldInt(const Field& field) {
  MIC_ASSIGN_OR_RETURN(std::int64_t value, ParseInt64(field.value));
  return static_cast<int>(value);
}

// Parses "a:b:c" into exactly `parts` numeric pieces (missing trailing
// pieces default to 0).
Result<std::vector<double>> ParseTuple(const std::string& value,
                                       std::size_t max_parts) {
  std::vector<double> numbers;
  const auto pieces = Split(value, ':');
  if (pieces.size() > max_parts) {
    return Status::InvalidArgument("too many ':' fields in '" + value +
                                   "'");
  }
  for (const std::string& piece : pieces) {
    MIC_ASSIGN_OR_RETURN(double number, ParseDouble(piece));
    numbers.push_back(number);
  }
  numbers.resize(max_parts, 0.0);
  return numbers;
}

Status ParseDisease(const std::vector<Field>& fields, WorldConfig& config) {
  if (fields.size() < 2 || !fields[1].key.empty()) {
    return Status::InvalidArgument("disease line needs a name");
  }
  DiseaseSpec spec;
  spec.name = fields[1].value;
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const Field& field = fields[i];
    if (field.key == "weight") {
      MIC_ASSIGN_OR_RETURN(spec.base_weight, FieldDouble(field));
    } else if (field.key == "amplitude") {
      MIC_ASSIGN_OR_RETURN(spec.seasonality.amplitude, FieldDouble(field));
    } else if (field.key == "peak") {
      MIC_ASSIGN_OR_RETURN(spec.seasonality.peak_month, FieldInt(field));
    } else if (field.key == "sharpness") {
      MIC_ASSIGN_OR_RETURN(spec.seasonality.sharpness, FieldDouble(field));
    } else if (field.key == "second_amplitude") {
      MIC_ASSIGN_OR_RETURN(spec.seasonality.second_amplitude,
                           FieldDouble(field));
    } else if (field.key == "second_peak") {
      MIC_ASSIGN_OR_RETURN(spec.seasonality.second_peak_month,
                           FieldInt(field));
    } else if (field.key == "chronic") {
      MIC_ASSIGN_OR_RETURN(spec.chronic_fraction, FieldDouble(field));
    } else if (field.key == "intensity") {
      MIC_ASSIGN_OR_RETURN(spec.medication_intensity, FieldDouble(field));
    } else if (field.key == "outlier") {
      MIC_ASSIGN_OR_RETURN(std::vector<double> tuple,
                           ParseTuple(field.value, 2));
      spec.outlier_multipliers[static_cast<int>(tuple[0])] = tuple[1];
    } else if (field.key == "prevalence") {
      MIC_ASSIGN_OR_RETURN(std::vector<double> tuple,
                           ParseTuple(field.value, 3));
      spec.prevalence_events.push_back({static_cast<int>(tuple[0]),
                                        tuple[1],
                                        static_cast<int>(tuple[2])});
    } else {
      return Status::InvalidArgument("unknown disease key: " + field.key);
    }
  }
  config.diseases.push_back(std::move(spec));
  return Status::OK();
}

Status ParseMedicine(const std::vector<Field>& fields,
                     WorldConfig& config) {
  if (fields.size() < 2 || !fields[1].key.empty()) {
    return Status::InvalidArgument("medicine line needs a name");
  }
  MedicineSpec spec;
  spec.name = fields[1].value;
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const Field& field = fields[i];
    if (field.key == "propensity") {
      MIC_ASSIGN_OR_RETURN(spec.propensity, FieldDouble(field));
    } else if (field.key == "release") {
      MIC_ASSIGN_OR_RETURN(spec.release_month, FieldInt(field));
    } else if (field.key == "generic_of") {
      spec.generic_of = field.value;
    } else if (field.key == "indication") {
      // name:weight:start:ramp
      const auto pieces = Split(field.value, ':');
      if (pieces.empty() || pieces[0].empty()) {
        return Status::InvalidArgument("indication needs a disease name");
      }
      IndicationSpec indication;
      indication.disease = pieces[0];
      if (pieces.size() > 1) {
        MIC_ASSIGN_OR_RETURN(indication.weight, ParseDouble(pieces[1]));
      }
      if (pieces.size() > 2) {
        MIC_ASSIGN_OR_RETURN(std::int64_t start, ParseInt64(pieces[2]));
        indication.start_month = static_cast<int>(start);
      }
      if (pieces.size() > 3) {
        MIC_ASSIGN_OR_RETURN(std::int64_t ramp, ParseInt64(pieces[3]));
        indication.ramp_months = static_cast<int>(ramp);
      }
      spec.indications.push_back(std::move(indication));
    } else if (field.key == "propensity_event") {
      MIC_ASSIGN_OR_RETURN(std::vector<double> tuple,
                           ParseTuple(field.value, 3));
      spec.propensity_events.push_back({static_cast<int>(tuple[0]),
                                        tuple[1],
                                        static_cast<int>(tuple[2])});
    } else if (field.key == "city_delay") {
      const auto pieces = Split(field.value, ':');
      if (pieces.size() != 2) {
        return Status::InvalidArgument("city_delay needs city:months");
      }
      MIC_ASSIGN_OR_RETURN(std::int64_t delay, ParseInt64(pieces[1]));
      spec.city_release_delays[pieces[0]] = static_cast<int>(delay);
    } else {
      return Status::InvalidArgument("unknown medicine key: " + field.key);
    }
  }
  config.medicines.push_back(std::move(spec));
  return Status::OK();
}

Result<HospitalClass> ParseClass(const std::string& name) {
  if (name == "small") return HospitalClass::kSmall;
  if (name == "medium") return HospitalClass::kMedium;
  if (name == "large") return HospitalClass::kLarge;
  return Status::InvalidArgument("unknown hospital class: " + name);
}

Status ParseBias(const std::vector<Field>& fields, WorldConfig& config) {
  if (fields.size() < 4) {
    return Status::InvalidArgument(
        "bias line needs class, medicine, disease");
  }
  ClassBiasSpec bias;
  MIC_ASSIGN_OR_RETURN(bias.hospital_class, ParseClass(fields[1].value));
  bias.medicine = fields[2].value;
  bias.disease = fields[3].value;
  for (std::size_t i = 4; i < fields.size(); ++i) {
    if (fields[i].key == "weight") {
      MIC_ASSIGN_OR_RETURN(bias.weight, FieldDouble(fields[i]));
    } else {
      return Status::InvalidArgument("unknown bias key: " + fields[i].key);
    }
  }
  config.class_biases.push_back(std::move(bias));
  return Status::OK();
}

}  // namespace

Result<WorldConfig> ReadWorldConfig(std::istream& in) {
  WorldConfig config;
  config.diseases.clear();
  config.medicines.clear();
  config.cities.clear();

  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (StripWhitespace(line).empty()) continue;

    auto fields = ParseFields(line);
    if (!fields.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + fields.status().message());
    }
    const std::string& kind = (*fields)[0].value;
    Status status = Status::OK();
    if (kind == "disease") {
      status = ParseDisease(*fields, config);
    } else if (kind == "medicine") {
      status = ParseMedicine(*fields, config);
    } else if (kind == "bias") {
      status = ParseBias(*fields, config);
    } else if (kind == "city") {
      if (fields->size() < 2) {
        status = Status::InvalidArgument("city line needs a name");
      } else {
        CitySpec city;
        city.name = (*fields)[1].value;
        for (std::size_t i = 2; i < fields->size(); ++i) {
          if ((*fields)[i].key == "weight") {
            auto weight = FieldDouble((*fields)[i]);
            if (!weight.ok()) {
              status = weight.status();
              break;
            }
            city.population_weight = *weight;
          }
        }
        if (status.ok()) config.cities.push_back(std::move(city));
      }
    } else if (kind == "config" || kind == "hospitals" ||
               kind == "patients") {
      for (std::size_t i = 1; i < fields->size(); ++i) {
        const Field& field = (*fields)[i];
        Result<double> number = FieldDouble(field);
        if (!number.ok()) {
          status = number.status();
          break;
        }
        const double value = *number;
        if (kind == "config") {
          if (field.key == "months") {
            config.num_months = static_cast<int>(value);
          } else if (field.key == "start_month") {
            config.start_calendar_month = static_cast<int>(value);
          } else if (field.key == "seed") {
            config.seed = static_cast<std::uint64_t>(value);
          } else {
            status =
                Status::InvalidArgument("unknown config key: " + field.key);
            break;
          }
        } else if (kind == "hospitals") {
          if (field.key == "count") {
            config.hospitals.count = static_cast<std::size_t>(value);
          } else if (field.key == "small") {
            config.hospitals.small_fraction = value;
          } else if (field.key == "medium") {
            config.hospitals.medium_fraction = value;
          } else if (field.key == "large") {
            config.hospitals.large_fraction = value;
          } else {
            status = Status::InvalidArgument("unknown hospitals key: " +
                                             field.key);
            break;
          }
        } else {  // patients
          if (field.key == "count") {
            config.patients.count = static_cast<std::size_t>(value);
          } else if (field.key == "visit") {
            config.patients.base_visit_probability = value;
          } else if (field.key == "boost") {
            config.patients.chronic_visit_boost = value;
          } else if (field.key == "acute") {
            config.patients.mean_acute_diseases = value;
          } else {
            status = Status::InvalidArgument("unknown patients key: " +
                                             field.key);
            break;
          }
        }
      }
    } else {
      status = Status::InvalidArgument("unknown line kind: " + kind);
    }
    if (!status.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + status.message());
    }
  }
  return config;
}

Result<WorldConfig> ReadWorldConfigFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return ReadWorldConfig(in);
}

Status WriteWorldConfig(const WorldConfig& config, std::ostream& out) {
  // Shortest-round-trip precision so Read(Write(config)) is lossless.
  out << std::setprecision(17);
  out << "config,months=" << config.num_months
      << ",start_month=" << config.start_calendar_month
      << ",seed=" << config.seed << "\n";
  out << "hospitals,count=" << config.hospitals.count
      << ",small=" << config.hospitals.small_fraction
      << ",medium=" << config.hospitals.medium_fraction
      << ",large=" << config.hospitals.large_fraction << "\n";
  out << "patients,count=" << config.patients.count
      << ",visit=" << config.patients.base_visit_probability
      << ",boost=" << config.patients.chronic_visit_boost
      << ",acute=" << config.patients.mean_acute_diseases << "\n";
  for (const CitySpec& city : config.cities) {
    out << "city," << city.name << ",weight=" << city.population_weight
        << "\n";
  }
  for (const DiseaseSpec& disease : config.diseases) {
    out << "disease," << disease.name << ",weight=" << disease.base_weight;
    if (!disease.seasonality.IsFlat()) {
      out << ",amplitude=" << disease.seasonality.amplitude
          << ",peak=" << disease.seasonality.peak_month
          << ",sharpness=" << disease.seasonality.sharpness
          << ",second_amplitude=" << disease.seasonality.second_amplitude
          << ",second_peak=" << disease.seasonality.second_peak_month;
    }
    out << ",chronic=" << disease.chronic_fraction
        << ",intensity=" << disease.medication_intensity;
    for (const auto& [month, multiplier] : disease.outlier_multipliers) {
      out << ",outlier=" << month << ':' << multiplier;
    }
    for (const ScheduledEvent& event : disease.prevalence_events) {
      out << ",prevalence=" << event.month << ':'
          << event.target_multiplier << ':' << event.ramp_months;
    }
    out << "\n";
  }
  for (const MedicineSpec& medicine : config.medicines) {
    out << "medicine," << medicine.name
        << ",propensity=" << medicine.propensity
        << ",release=" << medicine.release_month;
    if (!medicine.generic_of.empty()) {
      out << ",generic_of=" << medicine.generic_of;
    }
    for (const IndicationSpec& indication : medicine.indications) {
      out << ",indication=" << indication.disease << ':'
          << indication.weight << ':' << indication.start_month << ':'
          << indication.ramp_months;
    }
    for (const ScheduledEvent& event : medicine.propensity_events) {
      out << ",propensity_event=" << event.month << ':'
          << event.target_multiplier << ':' << event.ramp_months;
    }
    for (const auto& [city, delay] : medicine.city_release_delays) {
      out << ",city_delay=" << city << ':' << delay;
    }
    out << "\n";
  }
  for (const ClassBiasSpec& bias : config.class_biases) {
    out << "bias," << HospitalClassName(bias.hospital_class) << ','
        << bias.medicine << ',' << bias.disease
        << ",weight=" << bias.weight << "\n";
  }
  if (!out.good()) return Status::IoError("stream failure writing world");
  return Status::OK();
}

}  // namespace mic::synth
