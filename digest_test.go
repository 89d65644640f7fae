package gamma_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sort"
	"testing"

	gamma "github.com/gamma-suite/gamma"
)

// studyDigest is the SHA-256 of a study's Result JSON and of each
// country's dataset as compact JSON.
type studyDigest struct {
	result   string
	datasets map[string]string
}

// pinnedDigests were computed at seeds 42 and 1729 on linux/amd64. A
// change that moves any of them changes the study's science, and must
// say so and update them.
var pinnedDigests = map[uint64]studyDigest{
	42: {
		result: "d3022be7aad0acecf79d63d9c544081a690688f8509bb3113d5530a1c8c2915a",
		datasets: map[string]string{
			"AE": "a58209755e7b8eb3a72c0337974eda1abbb206bfcd7d6e78c4f151249b3ca76c",
			"AR": "c25eba1f8a24735d21fb562286c3445c7a185ef9b3a2e867fd5dd6ff632f610c",
			"AU": "c0b6ea1284d6e89ec2da192afbb06440fe029de8c5a053d6a98f1062f81233d4",
			"AZ": "8330030d239e25e09274ed74c4405d949ef2e3161273c3dc74bc588ec47ba936",
			"CA": "9dde2cb0bd3cc5f6bc4cf0425a7c12d92d0b57e6882e91dcdfb434b888205544",
			"DZ": "70f189dc89ffa37da2de55b247a0e29d13b553237ab2bb3195acfcc8bdabb9c9",
			"EG": "eefbc2b25419ea5add5a973c9451257ed414431f8cc7cd4477fdf0b293e7ec2d",
			"GB": "c5877ff8691680717a2fc6566a92f3e636b6fe8fedcc20bf185cca0d976d2763",
			"IN": "aa6dd9dc86546a1883bd9618bdc511e756ba6459c326c7478a3bccfd39d36620",
			"JO": "602df1b629c496f2dc593ee85d68bc1dca4359c6063c72327d2a670d25089b12",
			"JP": "2575a035a6210befe418fcae31ba93d9d520fb28c9d396a6417303bc8ddf2ac4",
			"LB": "d2bcbd6b41bb103eb863acc7969a235255826597e21415ce10f1ba570dde922e",
			"LK": "8c96bf367ac38f503a9a3d14f6716c312d6c61863cbc8e59e4a6515790edc7b7",
			"NZ": "137f4d6f55687303dff4f1d03aedf052b7dc63009c76f80f21cac3150344d72d",
			"PK": "b9e3f9f218b977185ba75cda09c69bd97532e656ef0fe80007b7a9db71ccbb61",
			"QA": "249643e30bbffcf348afcf683fc931fe0b1a127373f4af8dad24129cb290fac2",
			"RU": "6350c8396456922bea4438f0b99a9e5162ee353e6a6145bdb2395ec37be3edea",
			"RW": "7dda32ce417f7293cca1a785bcb9963d21a740474570dc87e2fda7d65ca09e16",
			"SA": "0b7892e704a724aacb0a6d9dccace6c2511c64a89fdcf06c9947e66ee1e361c7",
			"TH": "80c3ae8fa9257d6d2de91295e887688be4c9674268e5c439ec14ad2be3df5bf0",
			"TW": "671f2f3dc08e0f40cc47da968689ffda2ce97ae4fc9e12594d9a6d57971bef5d",
			"UG": "b076adfd53560adbbac982f6b3859577284125e87a3d4ac7323c9e6032262452",
			"US": "38b4b743eb9004c63faa75c8cb944947e14bb222a51a0988bf8ddbafcd6e34fb",
		},
	},
	1729: {
		result: "643a57422fd87dcd751d9bba0d50d68e07541ab9e5db474be74ecb2a6f90fa5e",
		datasets: map[string]string{
			"AE": "eeae2f7b9f1a5eeff6070605d13a178cdde8957ad2bae399956f40157ab78633",
			"AR": "187f744fde09ddc87760d26d2a1988f309f0ea0c7c9fbf91593ca848fa75e11e",
			"AU": "b1642f2f1e570be3e042c47632783b3774d7c55a519891c5a712d66f2be3d5fe",
			"AZ": "b75a7cf383dc42b4d589f4a08c66e13eb6822b4aa2b624ccf9d1eaaec3a61541",
			"CA": "618ee203dd22018e6fa4f84fb39cc49e9c89622a4e70cf09f1c9c66b6fdd1f50",
			"DZ": "cc09aabbdccb085a8e51233aa564650944bf0b4060d2ae1750a6823850d26717",
			"EG": "29cb5880bb05db239b83b26fdb2b7f931d8f085670fc46b1bc9b1fa3aaccf6da",
			"GB": "ce88af006aa5806912a221d34d2a97c27b62151c6f9a64a32704db57a0c08473",
			"IN": "ebe866a06fa1bdceb29162404070afbe00ba5c028f25b9dfb304c02811d81a6e",
			"JO": "ab90934c6b485c1ec0f27f6ea2476a64dcf9edea117836069041aafa78b113f2",
			"JP": "389657aa417ca864e8bc3743ec2ac545afacff1a038f820f15f4c1f0202aea39",
			"LB": "88d0c53a18bf8d68dae998b36461bd29226322134f967d43efb2d4d256ab7b73",
			"LK": "ddf3870b47334df7760c7af55a6191517f3f24c6c6fb943cff5fcdb9d0f6284e",
			"NZ": "4eb42856eb61ea627160af840baf896942542765d77c4edfbb85bf151cd36e34",
			"PK": "8698f8e88276ad625c7796ef575267c10390cbe0f34ab783955117a27f72fc56",
			"QA": "f895fc223ae1bb493414dfddfc904b2590c71f99d2271122171a17575226c05b",
			"RU": "b3e92fd59c4a550989fe43901ad5427dd9b1004afe9fddc3d3b5b9f24ae9955b",
			"RW": "428474ac38f2191e070d07871072ad4603e34d9f2873a71024630306e2b5d6c6",
			"SA": "f9742ea23786a7d6d4ad884adebc2ac80575d6b7f56eb03a2f98ebf84922920e",
			"TH": "bf6ec248764e8bd7e4243caae34779ca30da10ff220b2ab106065eced979d2b6",
			"TW": "df9ea86e8127230cf66e991bdbf03e461b7cb38f26a0fa9620efeb36522fce58",
			"UG": "d12d778c17e3b77752bcb4de35e95a86ccfd70497d447b47991109cbdc09b81d",
			"US": "ab90f25dbf8a90f9671ade41d34dbf46eed7b245a3ef2172f121efce8e468bbb",
		},
	},
}

func sha256Hex(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestStudyDigestPinned compares a fresh study's Result and datasets at
// seeds 42 and 1729 with committed digests. The determinism tests compare
// a study only with itself, so a change to the science passes them; this
// test does not.
func TestStudyDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; on %s the compiler may fuse floating-point operations and change float bits", runtime.GOARCH)
	}
	for _, seed := range []uint64{42, 1729} {
		want := pinnedDigests[seed]
		s, err := gamma.RunStudy(context.Background(), seed)
		if err != nil {
			t.Fatalf("RunStudy(%d): %v", seed, err)
		}
		if got := sha256Hex(t, s.Result); got != want.result {
			t.Errorf("seed %d: Result digest %s, want %s", seed, got, want.result)
		}
		if len(s.Datasets) != len(want.datasets) {
			t.Errorf("seed %d: %d datasets, want %d", seed, len(s.Datasets), len(want.datasets))
		}
		ccs := make([]string, 0, len(s.Datasets))
		for cc := range s.Datasets {
			ccs = append(ccs, cc)
		}
		sort.Strings(ccs)
		for _, cc := range ccs {
			if got := sha256Hex(t, s.Datasets[cc]); got != want.datasets[cc] {
				t.Errorf("seed %d: %s dataset digest %s, want %s", seed, cc, got, want.datasets[cc])
			}
		}
	}
}
