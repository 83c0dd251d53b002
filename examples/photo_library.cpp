// Photo library: the paper's §1 motivating workload.
//
// "One might want to access a picture, for instance, based on who is in it, when it was
// taken, where it was taken, etc." — this example builds a synthetic multi-gigapixel-era
// photo library and answers exactly those questions, without a directory in sight.
//
//   $ ./examples/photo_library
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/filesystem.h"
#include "src/storage/block_device.h"

using hfad::MemoryBlockDevice;
using hfad::Random;
using hfad::core::FileSystem;
using hfad::core::ObjectId;

namespace {

void Check(const hfad::Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

const char* kPeople[] = {"margo", "nick", "grandma", "ada", "dennis"};
const char* kPlaces[] = {"hawaii", "boston", "berkeley", "kyoto"};
const char* kYears[] = {"2007", "2008", "2009"};

}  // namespace

int main() {
  auto device = std::make_shared<MemoryBlockDevice>(256ull << 20);
  auto fs_or = FileSystem::Create(device);
  Check(fs_or.status(), "create volume");
  auto& fs = *fs_or;

  // Ingest 500 "photos": a JPEG-ish payload plus tags for who/where/when and a caption
  // that goes to the full-text index.
  Random rng(2009);
  printf("ingesting 500 photos...\n");
  for (int i = 0; i < 500; i++) {
    const char* place = kPlaces[rng.Uniform(4)];
    const char* year = kYears[rng.Uniform(3)];
    auto photo = fs->Create({{"APP", "camera-import"},
                             {"UDEF", std::string("place:") + place},
                             {"UDEF", std::string("year:") + year}});
    Check(photo.status(), "create photo");
    // Each photo has 1-3 people in it — multiple names for one object (§2.2).
    int npeople = 1 + static_cast<int>(rng.Uniform(3));
    std::string caption = "photo taken in " + std::string(place) + " " + year + " with";
    for (int p = 0; p < npeople; p++) {
      const char* person = kPeople[rng.Uniform(5)];
      Check(fs->AddTag(*photo, {"UDEF", std::string("person:") + person}), "tag person");
      caption += " " + std::string(person);
    }
    // Synthetic image payload + caption; the caption is what gets indexed.
    std::string payload = rng.NextString(2048) + "\n" + caption;
    Check(fs->Write(*photo, 0, payload), "write photo");
    Check(fs->IndexContent(*photo), "index caption");
  }

  // Who: every photo with grandma in it.
  auto grandma = fs->Lookup({{"UDEF", "person:grandma"}});
  Check(grandma.status(), "lookup person");
  printf("photos with grandma:                 %4zu\n", grandma->size());

  // Who + where: grandma in hawaii.
  auto gh = fs->Lookup({{"UDEF", "person:grandma"}, {"UDEF", "place:hawaii"}});
  Check(gh.status(), "lookup person+place");
  printf("photos with grandma in hawaii:       %4zu\n", gh->size());

  // Who + where + when, as a boolean query with an exclusion.
  auto q = fs->Query(
      "UDEF:person:grandma AND UDEF:place:hawaii AND NOT UDEF:year:2007");
  Check(q.status(), "boolean query");
  printf("  ... excluding 2007:                %4zu\n", q->size());

  // Content search over captions (BM25-ranked).
  auto hits = fs->SearchText({"kyoto", "margo"}, 5);
  Check(hits.status(), "content search");
  printf("top caption hits for kyoto+margo:    %4zu\n", hits->size());

  // The "current directory" is an iterative search refinement (§4, open question #2):
  // cd person:ada; cd year:2009 — then ls.
  auto cursor = fs->OpenCursor();
  Check(cursor.Refine({"UDEF", "person:ada"}), "cd person:ada");
  Check(cursor.Refine({"UDEF", "year:2009"}), "cd year:2009");
  auto listing = cursor.Results();
  Check(listing.status(), "ls");
  printf("cursor person:ada/year:2009 lists:   %4zu\n", listing->size());
  Check(cursor.Up(), "cd ..");
  auto wider = cursor.Results();
  Check(wider.status(), "ls");
  printf("  ... after cd ..:                   %4zu\n", wider->size());

  // Collections are tags, so "albums" are free: put one photo in three albums.
  if (!gh->empty()) {
    ObjectId favorite = (*gh)[0];
    for (const char* album : {"album:best-of", "album:family", "album:wall-print"}) {
      Check(fs->AddTag(favorite, {"UDEF", album}), "album tag");
    }
    auto tags = fs->Tags(favorite);
    Check(tags.status(), "tags");
    printf("favorite photo now carries %zu names\n", tags->size());
  }

  Check(fs->Checkpoint(), "checkpoint");
  printf("OK\n");
  return 0;
}
